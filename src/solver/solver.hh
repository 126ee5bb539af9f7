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
 *    learned refuting one candidate prune the next. Each query decides
 *    only the SAT variables of its own term cone, which the blaster
 *    reports as ranges after blasting the assertions: a Sat answer
 *    leaves earlier queries' circuits unassigned, as a fresh instance
 *    holding only the cone would, the way KLEE hands STP only the
 *    query's own constraints. The cone is closed under gate inputs, so
 *    the model it gives extends to the whole instance.
 *
 *  - Fresh (escape hatch, `SolverOptions::incremental = false`): a brand
 *    new SAT instance per query, re-blasting everything — the original
 *    behavior, kept for ablations, differential testing, and the BSEE's
 *    witness fallback rerun.
 *
 * Both backends hand the SAT core the plain Tseitin encoding: there is no
 * word-level rewriting and no CNF pre/inprocessing. The one simplification
 * stage left is learnt-clause minimization inside conflict analysis
 * (`SolverOptions::minimize`).
 *
 * Each SAT dispatch is one `smt.solve` trace span, split by kernel into
 * `smt.blast` (assertions to indicator literals, in the blaster's literal
 * pool), `sat.cdcl` (the core's solve over its clause arena) and
 * `smt.model` (model readback). The dispatch's SAT work comes from the
 * core's integer counters, read before and after the solve call. Model
 * readback panics on an unassigned bit of an assertion variable rather
 * than read it as 0.
 *
 * Counterexample reuse in front of either backend mirrors KLEE's
 * counterexample caching (enabled in the paper's "Original KLEE" baseline
 * configuration): models from previous satisfiable queries, kept in a
 * fixed-size ring, are tried against each new query before paying for a
 * SAT call. Unsat and Unknown answers are never remembered.
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
#include <memory>
#include <unordered_map>
#include <vector>

#include "solver/sat/sat.hh"
#include "solver/term.hh"
#include "util/stats.hh"

namespace coppelia::smt
{

class BitBlaster;

/** Outcome of a satisfiability query. */
enum class Result
{
    Sat,
    Unsat,
    Unknown, ///< conflict budget exhausted
};

/**
 * Placeholder for a deleted setting: the `solverRewrite`,
 * `solverPreprocess`, `solverAdaptive`, `solverThreads`,
 * `solverPortfolio` and `solverCubeBudget` members of
 * campaign::CampaignSpec, bse::Options and bmc::BmcOptions, and the
 * simulation-backend members `simBackend` of campaign::CampaignSpec,
 * core::CoppeliaOptions and bmc::BmcOptions and `backend` of
 * fuzz::FuzzOptions. It holds no value and nothing converts to it, so no
 * code can set or read them. The type exists only because
 * `perfbench/perfbench.cc` still copies those members between the
 * option structs.
 */
struct RemovedOption
{
};

/** Solver configuration. */
struct SolverOptions
{
    std::int64_t conflictBudget = -1; ///< per-query SAT conflict limit
    /** Keep one SAT instance across queries (assumption-based frames,
     *  memoized bit-blasting, learnt-clause retention). */
    bool incremental = true;
    /** Cap on remembered models for counterexample reuse (0 = no
     *  reuse: every query goes to SAT). */
    std::size_t maxRecentModels = 64;
    /** Learnt-clause minimization in conflict analysis
     *  (`--no-minimize` ablation). */
    bool minimize = true;
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
     * Retry a query check() answered Unknown once, at 4x the configured
     * conflict budget (tagged retry=1 in the query log). Unknown again
     * means the query stays undecided; under an unlimited budget there
     * is nothing to retry and this returns Unknown at once.
     */
    Result escalate(const std::vector<TermRef> &assertions, Model *model);

    /** Work counters: queries, model-reuse hits, SAT calls, conflicts,
     *  and the incremental-reuse measures (blast_cache_hits,
     *  learnts_retained). */
    const StatGroup &stats() const { return stats_; }

    /** Drop the persistent SAT instance (incremental mode); the next query
     *  re-blasts from scratch. */
    void resetIncremental();

  private:
    /** One counterexample-reuse slot: a remembered model and the truth
     *  value of each assertion already evaluated under it. */
    struct ReuseSlot
    {
        Model model;
        std::unordered_map<TermRef, bool> holds;
    };

    /** True iff the slot's model satisfies every assertion; evaluates
     *  (and memoizes) only the assertions the slot has not seen. */
    bool modelSatisfies(const std::vector<TermRef> &assertions,
                        ReuseSlot &slot);

    /** Remember a model for counterexample reuse (ring buffer). */
    void rememberModel(const Model &model);

    /** The backends report the SAT core's work of the dispatch in
     *  @p work, left zero when they answer without calling the core. */
    Result solveCore(const std::vector<TermRef> &assertions, Model *model);
    Result solveFresh(const std::vector<TermRef> &assertions, Model *model,
                      sat::Solver::Counters &work);
    Result solveIncremental(const std::vector<TermRef> &assertions,
                            Model *model, sat::Solver::Counters &work);

    /** Add the SAT core's work since @p before to stats_ and the
     *  registry; returns that work. */
    sat::Solver::Counters addSatWork(const sat::Solver &sat,
                                     const sat::Solver::Counters &before);

    /** Read back every theory variable of @p assertions from @p sat. */
    void readModel(const BitBlaster &blaster, const sat::Solver &sat,
                   const std::vector<TermRef> &assertions,
                   Model *model) const;

    TermManager &tm_;
    SolverOptions opts_;
    std::vector<ReuseSlot> recentModels_; ///< counterexample-reuse ring
    std::size_t recentNext_ = 0;          ///< ring replacement cursor
    StatGroup stats_;

    // Incremental backend (lazily created on the first query).
    std::unique_ptr<sat::Solver> incSat_;
    std::unique_ptr<BitBlaster> incBlaster_;
};

} // namespace coppelia::smt

#endif // COPPELIA_SOLVER_SOLVER_HH
