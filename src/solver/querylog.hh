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
 *  - a process-wide top-K (mutex-guarded; the fast path that skips the
 *    mutex reads only atomics) feeds the monitor's live
 *    `slowest_queries` view.
 */

#ifndef COPPELIA_SOLVER_QUERYLOG_HH
#define COPPELIA_SOLVER_QUERYLOG_HH

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "util/json.hh"

namespace coppelia::smt::querylog
{

/** The per-job query-log artifact (queries.jsonl) schema version,
 *  emitted in the meta line that heads every flush. v2 added the
 *  parallel-dispatch fields (mode, racer, winner, cubes); v3 dropped
 *  rewrite_hits and preprocess_removed with the solver stages that
 *  filled them; v4 dropped the parallel-dispatch fields with the
 *  parallel escalation layer. */
constexpr int kQuerylogSchemaVersion = 4;

/** One SAT dispatch. POD: recording is a slot copy, no allocation. */
struct Record
{
    std::uint64_t id = 0;   ///< process-wide query sequence number
    int job = -1;           ///< originating campaign job (-1 outside one)
    int iteration = -1;     ///< BSEE iteration (-1 outside a search)
    const char *origin = ""; ///< interned origin label (assertion id)
    std::uint32_t assumptions = 0; ///< assumption-frame depth
    std::uint32_t retry = 0;       ///< 0 first attempt, 1 budget retry
    std::uint64_t conflicts = 0;   ///< SAT conflicts this query
    std::uint64_t decisions = 0;
    std::uint64_t propagations = 0;
    std::uint64_t restarts = 0;
    std::uint64_t learntLitsSaved = 0; ///< minimization savings
    std::uint64_t wallUs = 0;
    int result = 0; ///< static_cast<int>(smt::Result): 0 Sat 1 Unsat 2 Unknown
    bool incremental = false; ///< answered by the persistent backend
};

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

/** One record as a JSON object (the queries.jsonl line shape). */
json::Value recordToJson(const Record &r);

/**
 * Write a drained buffer as JSONL: one meta line
 * (`{"meta":"querylog","schema_version":4,"recorded":N,"dropped":N,
 * "total_wall_us":N}`) followed by one line per record. The meta line's
 * total_wall_us sums over every recorded query including dropped ones,
 * so it agrees exactly with the solver's solve_us accounting even when
 * the ring overflowed.
 */
void writeJsonl(std::ostream &out, const Drained &d);

} // namespace coppelia::smt::querylog

#endif // COPPELIA_SOLVER_QUERYLOG_HH
