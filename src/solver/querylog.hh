/**
 * @file
 * Per-query solver forensics log. Every SAT dispatch (`smt.solve`) emits
 * one fixed-size record — who asked (campaign job, BSEE iteration,
 * assertion), how big the assumption frame was, what the SAT core did
 * (conflicts, decisions, propagations, restarts), what learnt-clause
 * minimization saved, the retry level, the wall time, and the
 * three-valued result. Where the metrics registry answers "how much
 * total", the query log answers "which query" — the instrument the
 * slowest-query ranking, the /status forensics section, and
 * coppelia-report are built on.
 *
 * Discipline matches trace/metrics:
 *  - the hot path is allocation-free: records are POD, the per-thread
 *    ring and top-K slots are allocated once at thread registration, and
 *    string fields are interned `const char *` (unit-asserted with the
 *    counting-operator-new test);
 *  - per-thread buffering: a campaign job runs on one worker thread, so
 *    draining the calling thread's buffer at job end yields exactly that
 *    job's queries with no locking against other workers;
 *  - ring overflow never loses the interesting tail: a per-thread top-K
 *    by wall time is maintained beside the ring, so the slowest queries
 *    of a very chatty search survive any number of overwrites;
 *  - a process-wide top-K (mutex-guarded, atomic-threshold fast path)
 *    feeds the monitor's live `slowest_queries` view;
 *  - the whole subsystem compiles out: configure with
 *    `-DCOPPELIA_QUERY_LOG=OFF` (defines COPPELIA_NO_QUERY_LOG) and
 *    record() is an empty inline, drains return nothing, and the solver
 *    skips the delta bookkeeping via `if constexpr (querylog::kEnabled)`.
 */

#ifndef COPPELIA_SOLVER_QUERYLOG_HH
#define COPPELIA_SOLVER_QUERYLOG_HH

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "util/json.hh"

namespace coppelia::smt::querylog
{

#ifdef COPPELIA_NO_QUERY_LOG
inline constexpr bool kEnabled = false;
#else
inline constexpr bool kEnabled = true;
#endif

/** The per-job query-log artifact (queries.jsonl) schema version,
 *  emitted in the meta line that heads every flush. v2 added the
 *  parallel-dispatch fields (mode, racer, winner, cubes); v3 dropped
 *  rewrite_hits and preprocess_removed with the solver stages that
 *  filled them. */
constexpr int kQuerylogSchemaVersion = 3;

/** One SAT dispatch. POD: recording is a slot copy, no allocation. */
struct Record
{
    std::uint64_t id = 0;   ///< process-wide query sequence number
    int job = -1;           ///< originating campaign job (-1 outside one)
    int iteration = -1;     ///< BSEE iteration (-1 outside a search)
    const char *origin = ""; ///< interned origin label (assertion id)
    std::uint32_t assumptions = 0; ///< assumption-frame depth
    std::uint32_t retry = 0;       ///< 0 first attempt, 1+ budget retries
    std::uint64_t conflicts = 0;   ///< SAT conflicts this query
    std::uint64_t decisions = 0;
    std::uint64_t propagations = 0;
    std::uint64_t restarts = 0;
    std::uint64_t learntLitsSaved = 0; ///< minimization savings
    std::uint64_t wallUs = 0;
    int result = 0; ///< static_cast<int>(smt::Result): 0 Sat 1 Unsat 2 Unknown
    bool incremental = false; ///< answered by the persistent backend
    /** Dispatch mode: 0 sequential, 1 portfolio race, 2 cube-and-conquer. */
    std::uint8_t mode = 0;
    /** Racer index for per-racer records of a portfolio dispatch; -1 on
     *  the dispatch-level record itself. */
    std::int16_t racer = -1;
    /** Winning racer of the parallel dispatch (-1 = none definitive). */
    std::int16_t winner = -1;
    /** Cube fan-out of a cube-and-conquer dispatch (0 otherwise). */
    std::uint16_t cubes = 0;
};

const char *modeName(int mode);

/**
 * Thread-local origin context, stamped onto every record the calling
 * thread emits. The campaign layer sets {job, origin} around a job; the
 * BSE engine keeps {iteration, retry} current inside a search. All
 * fields survive a record (context is sticky, not per-query).
 */
struct Context
{
    int job = -1;
    int iteration = -1;
    const char *origin = ""; ///< must be interned / process-lifetime
    std::uint32_t retry = 0;
};

/** What one drain returns: the surviving records (ring plus retained
 *  top-K, deduplicated, in emission order) and the overflow count. */
struct Drained
{
    std::vector<Record> records;
    std::uint64_t recorded = 0;    ///< records emitted since last drain
    std::uint64_t dropped = 0;     ///< of those, lost to ring overflow
    std::uint64_t totalWallUs = 0; ///< sum of wallUs over ALL recorded
};

const char *resultName(int result);

#ifndef COPPELIA_NO_QUERY_LOG

/** The calling thread's context (mutable; see Context). */
Context &context();

/** Record one query: stamps id and context, updates the per-thread ring,
 *  per-thread top-K, and the process-wide top-K. Allocation-free. */
void record(Record r);

/** Drain the calling thread's buffer (ring + retained top-K, sorted by
 *  id) and reset it. Only the owning thread may call this. */
Drained drainThread();

/** Copy of the process-wide top-K slowest queries, slowest first. */
std::vector<Record> globalSlowest();

/** Forget the process-wide top-K (test / campaign-boundary hygiene). */
void clearGlobalSlowest();

#else // COPPELIA_NO_QUERY_LOG: every entry point is a no-op

inline Context &
context()
{
    thread_local Context dummy;
    return dummy;
}
inline void
record(const Record &)
{
}
inline Drained
drainThread()
{
    return {};
}
inline std::vector<Record>
globalSlowest()
{
    return {};
}
inline void
clearGlobalSlowest()
{
}

#endif // COPPELIA_NO_QUERY_LOG

/** One record as a JSON object (the queries.jsonl line shape). */
json::Value recordToJson(const Record &r);

/**
 * Write a drained buffer as JSONL: one meta line
 * (`{"meta":"querylog","schema_version":3,"recorded":N,"dropped":N,
 * "total_wall_us":N}`) followed by one line per record. The meta line's
 * total_wall_us sums over every recorded query including dropped ones,
 * so it agrees exactly with the solver's solve_us accounting even when
 * the ring overflowed.
 */
void writeJsonl(std::ostream &out, const Drained &d);

} // namespace coppelia::smt::querylog

#endif // COPPELIA_SOLVER_QUERYLOG_HH
