/**
 * @file
 * Bounded model checking baseline — the stand-in for the commercial and
 * academic tools the paper compares against (§IV-C: Cadence IFV and EBMC).
 * The checker unrolls the design's transition relation k steps into one
 * SMT query per depth and reports the first violating trace.
 *
 * Two presets reproduce the qualitative behaviours the paper reports:
 *
 *  - IfvLike: checks a single transition from an *unconstrained* initial
 *    state. It finds one-step-violable properties quickly but returns
 *    *intermediate* triggers: the witness's initial state is usually not
 *    the reset state, so the generated instruction alone is frequently
 *    not replayable from reset (the paper's Table II: 12 of Cadence's 18
 *    triggers are not directly replayable).
 *
 *  - EbmcLike: unrolls from the reset state with an increasing bound, so
 *    any trace it finds is replayable by construction, at the cost of
 *    much larger queries per added cycle.
 *
 * The depth-k query also assumes the assertion at every depth whose
 * query came back Unsat. That removes no witness: depth j's input
 * constraints are a prefix of depth k's, so a depth-k trace violating at
 * j would have made depth j Sat. It keeps every earlier depth in the
 * query's cone, so the incremental solver, which decides only a query's
 * cone, decides the whole unrolling at every depth.
 */

#ifndef COPPELIA_BMC_BMC_HH
#define COPPELIA_BMC_BMC_HH

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "props/assertion.hh"
#include "rtl/design.hh"
#include "solver/solver.hh"
#include "sym/binding.hh"
#include "util/stats.hh"

namespace coppelia::bmc
{

/** Which tool behaviour to emulate. */
enum class Preset
{
    IfvLike,
    EbmcLike,
};

const char *presetName(Preset p);

/** Checker configuration. */
struct BmcOptions
{
    Preset preset = Preset::EbmcLike;
    /** Maximum unrolling depth (EbmcLike). */
    int maxBound = 6;
    /** Wall-clock limit in seconds (0 = unlimited). */
    double timeLimitSeconds = 0.0;
    /** Persistent incremental SAT backend across per-depth queries (the
     *  depth-k query shares the whole depth-(k-1) unrolling prefix). This
     *  and the two solver fields after it take their defaults from
     *  smt::SolverOptions. */
    bool incrementalSolver = smt::SolverOptions{}.incremental;
    /** Per-query SAT conflict budget (-1 = unlimited); an Unknown is
     *  retried once at 4x the budget, then marks the result
     *  incomplete. */
    std::int64_t solverConflictBudget = smt::SolverOptions{}.conflictBudget;
    /** Learnt-clause minimization (see smt::SolverOptions). */
    bool solverMinimize = smt::SolverOptions{}.minimize;
    /** Deleted settings; see smt::RemovedOption. */
    smt::RemovedOption solverRewrite, solverPreprocess, solverAdaptive;
    smt::RemovedOption solverThreads, solverPortfolio, solverCubeBudget;
    smt::RemovedOption simBackend;
    /** Constrain instruction inputs to legal opcodes (§II-E1 parity with
     *  the Coppelia runs, as the paper does for both tools). */
    std::function<smt::TermRef(smt::TermManager &, smt::TermRef)>
        insnConstraint;
};

/** One step of a counterexample trace. */
struct BmcTraceStep
{
    std::map<rtl::SignalId, std::uint64_t> inputs;
};

/** Checker result. */
struct BmcResult
{
    bool found = false;
    int depth = 0; ///< trace length in cycles
    /** Initial register state of the witness (reset for EbmcLike). */
    std::map<rtl::SignalId, std::uint64_t> initialState;
    std::vector<BmcTraceStep> trace;
    /** True when the witness starts at the reset state. */
    bool startsAtReset = false;
    /** True when replaying the trace inputs from reset fires the
     *  assertion (checked concretely). */
    bool replayableFromReset = false;
    /** True when a depth's query stayed Unknown after the retry: "not
     *  found" then means the check was incomplete, not depth-clean. */
    bool solverIncomplete = false;
    double seconds = 0.0;
    /** Every counter of the check's solver, prefixed "solver_", plus
     *  the checker's own Unknown counts. */
    StatGroup stats;
};

/** Run the bounded check for one assertion. */
BmcResult checkAssertion(const rtl::Design &design,
                         const props::Assertion &assertion,
                         const BmcOptions &opts);

} // namespace coppelia::bmc

#endif // COPPELIA_BMC_BMC_HH
