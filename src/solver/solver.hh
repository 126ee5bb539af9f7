/**
 * @file
 * The query-level solver facade: takes a conjunction of boolean terms and
 * returns SAT with a model or UNSAT. Two backends share the interface:
 *
 *  - Incremental (default): one persistent `sat::Solver` and one persistent
 *    `BitBlaster` live for the facade's lifetime. Every asserted term is
 *    bit-blasted once to an indicator literal; the Tseitin definitions stay
 *    in the clause database (they are pure definitions, satisfiable on
 *    their own) and each query solves under the assumption literals of its
 *    assertion set. Because learnt clauses are implied by the definition
 *    clauses alone, they remain valid — and retained — across queries.
 *    This is the assumption-frame scheme of incremental MiniSat/STP: the
 *    shared transition-relation terms of the BSEE's thousands of
 *    closely-related queries (§II-D6/D7) blast once, and conflict clauses
 *    learned refuting one candidate prune the next.
 *
 *  - Fresh (escape hatch, `SolverOptions::incremental = false`): a brand
 *    new SAT instance per query, re-blasting everything — the original
 *    behavior, kept for ablations and differential testing.
 *
 * A counterexample cache in front of either backend mirrors KLEE's
 * counterexample caching (enabled in the paper's "Original KLEE" baseline
 * configuration): exact query hits are answered immediately, and models
 * from previous satisfiable queries are tried against new queries before
 * paying for a SAT call. The cache is size-capped with FIFO eviction so a
 * long campaign job cannot grow it without bound.
 *
 * Each remembered model keeps a memo of the truth value of every
 * assertion already evaluated under it, so a query that shares
 * assertions with earlier ones (every query of one search does) only
 * evaluates the assertions that slot has not seen. The memo is exact:
 * terms are hash-consed and never freed, so a TermRef always names the
 * same term, and a slot's model does not change until the slot is
 * overwritten, which clears its memo.
 */

#ifndef COPPELIA_SOLVER_SOLVER_HH
#define COPPELIA_SOLVER_SOLVER_HH

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "solver/term.hh"
#include "util/stats.hh"

namespace coppelia::sat
{
class Solver;
} // namespace coppelia::sat

namespace coppelia::smt
{

class BitBlaster;
class Rewriter;

/** Outcome of a satisfiability query. */
enum class Result
{
    Sat,
    Unsat,
    Unknown, ///< conflict budget exhausted
};

/** Adaptive-simplification switch: Auto activates the per-query payoff
 *  heuristics only at threads > 1, so single-threaded runs stay
 *  bit-for-bit identical to the fixed-policy baseline. */
enum class AdaptiveSimplify
{
    Off,
    On,
    Auto,
};

/** Solver configuration. */
struct SolverOptions
{
    bool useCache = true;             ///< counterexample cache
    std::int64_t conflictBudget = -1; ///< per-query SAT conflict limit
    /** Keep one SAT instance across queries (assumption-based frames,
     *  memoized bit-blasting, learnt-clause retention). */
    bool incremental = true;
    /** Counterexample-cache entry cap (0 = unbounded); oldest entries are
     *  evicted first. */
    std::size_t cacheMaxEntries = 1u << 16;
    /** Cap on remembered models for counterexample reuse. */
    std::size_t maxRecentModels = 64;
    /** Word-level rewriting of assertions before bit-blasting (stage 1 of
     *  the simplification stack; opt-in `--rewrite` ablation). Off by
     *  default: it inflates what it feeds the blaster. A bound-3 EBMC
     *  proof of b31-patched blasts 27,363 terms with it and 1,779
     *  without, and the bmc-check workload runs ~10x faster with both
     *  this and `preprocess` off (EXPERIMENTS.md). */
    bool rewrite = false;
    /** Root-level CNF preprocessing / inprocessing in the SAT core
     *  (stage 2; opt-in `--preprocess` ablation). Incremental backend
     *  only. Off by default: on the plain encoding it costs more than it
     *  saves on every benchmark workload (bmc-check 10.1 -> 2.1 s,
     *  exploit-matrix 8.7 -> 8.4 s, patch-sweep 8.1 -> 6.9 s with
     *  rewriting already off). */
    bool preprocess = false;
    /** Learnt-clause minimization in conflict analysis (stage 3;
     *  `--no-minimize` ablation). */
    bool minimize = true;
    /**
     * Worker threads for the parallel escalation stages (portfolio race,
     * cube-and-conquer). 1 = fully sequential: the parallel layer is
     * never entered and every dispatch stays bit-for-bit identical to
     * the seed baseline. At threads > 1 an unlimited base budget is
     * bounded internally so the hard-query tail escalates into the
     * parallel stages, whose final cube stage then runs unbounded —
     * verdicts stay reproducible (soundness + a definitive final
     * stage); witnesses and per-racer work are scheduling-dependent.
     */
    int threads = 1;
    /** Portfolio-race stage of escalate() (threads > 1 only). */
    bool portfolio = true;
    /** Per-cube conflict budget for cube-and-conquer. 0 = auto: scales
     *  off the configured budget, and is unlimited when the configured
     *  budget is unlimited (keeping escalation definitive). */
    std::int64_t cubeBudget = 0;
    /** Sequential rungs of escalate()'s geometric budget ladder (rung k
     *  retries at 4^k x the base budget) before the parallel stages.
     *  The default single rung reproduces the historical one-shot 4x
     *  retry exactly. */
    int budgetLadderRungs = 1;
    /** Per-query payoff heuristics for the rewrite/preprocess stages
     *  (formula size, incremental depth, windowed hit history decide
     *  when a stage runs). See AdaptiveSimplify. */
    AdaptiveSimplify adaptiveSimplify = AdaptiveSimplify::Auto;
};

/**
 * Query-level solver over a shared TermManager. Thread-compatible (one
 * instance per thread); not thread-safe. In incremental mode the instance
 * carries SAT state across queries, so one Solver should span exactly the
 * term lifetime of its TermManager (one BSE search / BMC run).
 */
class Solver
{
  public:
    explicit Solver(TermManager &tm, SolverOptions opts = {});
    ~Solver();

    /**
     * Check satisfiability of the conjunction of @p assertions (each a
     * width-1 term). On Sat, @p model (if non-null) receives values for
     * every variable occurring in the assertions.
     */
    Result check(const std::vector<TermRef> &assertions, Model *model);

    /** Single-term convenience overload. */
    Result
    check(TermRef assertion, Model *model)
    {
        std::vector<TermRef> v{assertion};
        return check(v, model);
    }

    /**
     * check() under a one-off conflict budget (overriding the configured
     * one). Used to retry budget-exhausted (Unknown) queries with a larger
     * budget before a caller treats them as dead ends.
     */
    Result checkWithBudget(const std::vector<TermRef> &assertions,
                           Model *model, std::int64_t conflict_budget);

    /**
     * Escalation policy for a query check() answered Unknown: walk the
     * geometric budget ladder sequentially (rung k at 4^k x the base
     * budget, tagged retry=k in the querylog), then — at threads > 1 —
     * race a diversified portfolio with learnt-clause sharing, then
     * cube-and-conquer the query. Returns Unknown only when every stage
     * exhausted its budget. At the defaults (one rung, threads = 1)
     * this is exactly the historical single 4x retry.
     */
    Result escalate(const std::vector<TermRef> &assertions, Model *model);

    /**
     * True iff the conjunction of assertions is satisfiable; fatal on
     * Unknown (used where a budget overrun indicates a tool bug).
     */
    bool isSat(const std::vector<TermRef> &assertions);

    /** Work counters: queries, cache hits, SAT calls, conflicts, and the
     *  incremental-reuse measures (blast_cache_hits, learnts_retained). */
    const StatGroup &stats() const { return stats_; }

    /** Drop all cached query results. */
    void clearCache();

    /** Drop the persistent SAT instance (incremental mode); the next query
     *  re-blasts from scratch. */
    void resetIncremental();

  private:
    struct CacheEntry
    {
        Result result;
        Model model; // valid when result == Sat
    };

    using Cache = std::map<std::vector<TermRef>, CacheEntry>;

    /** One counterexample-reuse slot: a remembered model and the truth
     *  value of each assertion already evaluated under it. */
    struct ReuseSlot
    {
        Model model;
        std::unordered_map<TermRef, bool> holds;
    };

    /** Canonical cache key: sorted, deduplicated assertion refs. */
    static std::vector<TermRef>
    canonicalKey(const std::vector<TermRef> &assertions);

    /** True iff the slot's model satisfies every assertion; evaluates
     *  (and memoizes) only the assertions the slot has not seen. */
    bool modelSatisfies(const std::vector<TermRef> &assertions,
                        ReuseSlot &slot);

    /** Insert with FIFO eviction against cacheMaxEntries. */
    void cacheInsert(const std::vector<TermRef> &key, CacheEntry entry);

    /** Remember a model for counterexample reuse (ring buffer). */
    void rememberModel(const Model &model);

    Result solveCore(const std::vector<TermRef> &assertions, Model *model);
    Result solveFresh(const std::vector<TermRef> &assertions, Model *model);
    Result solveIncremental(const std::vector<TermRef> &assertions,
                            Model *model);

    /** Parallel escalation stages (portfolio + cube); mirrors check()'s
     *  rewrite/cache wrapper around solveParallelCore. */
    Result solveParallel(const std::vector<TermRef> &assertions,
                         Model *model);
    Result solveParallelCore(const std::vector<TermRef> &assertions,
                             Model *model);

    /** The base conflict budget actually dispatched: the configured one,
     *  except that threads > 1 bounds an unlimited budget so hard
     *  queries escalate into the parallel stages. */
    std::int64_t effectiveBudget() const;

    /** True when the adaptive simplification heuristics steer the
     *  rewrite/preprocess stages this run. */
    bool adaptiveActive() const;

    /** Read back every theory variable of @p assertions from @p sat. */
    void readModel(const BitBlaster &blaster, const sat::Solver &sat,
                   const std::vector<TermRef> &assertions,
                   Model *model) const;

    TermManager &tm_;
    SolverOptions opts_;
    Cache cache_;
    std::deque<Cache::iterator> cacheOrder_; ///< insertion order (FIFO)
    std::vector<ReuseSlot> recentModels_;    ///< counterexample-reuse ring
    std::size_t recentNext_ = 0;             ///< ring replacement cursor
    StatGroup stats_;

    // Incremental backend (lazily created on the first query).
    std::unique_ptr<sat::Solver> incSat_;
    std::unique_ptr<BitBlaster> incBlaster_;

    // Word-level rewriter (lazily created; persists across queries so its
    // ref -> ref memo amortizes like the blast cache).
    std::unique_ptr<Rewriter> rewriter_;
    /** Rewrite hits of the in-flight check(), consumed by solveCore into
     *  the query-log record (zero when the query short-circuits). */
    std::uint64_t pendingRewriteHits_ = 0;
    /** Clause count after the last preprocess() of the incremental
     *  backend; inprocessing reruns once enough new clauses accumulate. */
    std::size_t preprocessedClauses_ = 0;

    // Adaptive-simplification state (inert unless adaptiveActive()).
    /** Windowed rewrite payoff: queries and rule hits since the last
     *  window close; a low-yield window turns rewriting off (with a
     *  periodic probe so it can come back). */
    std::uint64_t adaptiveWindowQueries_ = 0;
    std::uint64_t adaptiveWindowHits_ = 0;
    bool adaptiveRewriteOff_ = false;
    /** Multiplies the inprocessing growth threshold; doubles after an
     *  unproductive pass (< 1% of the database removed), resets after a
     *  productive one. */
    std::size_t preprocessBackoff_ = 1;
};

} // namespace coppelia::smt

#endif // COPPELIA_SOLVER_SOLVER_HH
