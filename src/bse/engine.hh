/**
 * @file
 * The hardware-oriented backward symbolic execution engine (BSEE) — the
 * paper's primary contribution (§II-D, Figure 2). Given a design and a
 * security assertion, the engine searches backward from an error state to
 * the reset state, one clock cycle at a time:
 *
 *   1. One Instruction Generation — symbolically explore one clock cycle
 *      from an unconstrained (cone-restricted, §II-D3) state;
 *   2. Assertion Violation — find a leaf whose post-state can violate the
 *      assertion (or, in later iterations, match the previously found
 *      intermediate state);
 *   3. Fast Validation — reject intermediate states unlikely to lead back
 *      to reset: the diff rule (Eq. 1: at most |s|/4 + 1 registers may
 *      differ from reset) and the no-repeat rule (Eq. 2);
 *   4. Bound Checking — give up past a configurable trigger length;
 *   5. Stitching Cycles — concrete stitching by default (§II-D6: pin the
 *      candidate predecessor's registers to the model's values), with the
 *      complete constrained mode available for the ablation;
 *   6. Feedback Generation — when an iteration dead-ends, return to the
 *      previous one and continue exploration excluding the test cases
 *      already tried (§II-D7).
 *
 * The engine is sound but not complete: a returned trigger genuinely
 * drives the design from reset to a violating state (replayable on the
 * concrete simulator), but the search may fail to find existing
 * violations.
 */

#ifndef COPPELIA_BSE_ENGINE_HH
#define COPPELIA_BSE_ENGINE_HH

#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "props/assertion.hh"
#include "rtl/design.hh"
#include "solver/solver.hh"
#include "sym/binding.hh"
#include "sym/executor.hh"
#include "util/stats.hh"

namespace coppelia::bse
{

/** How consecutive cycles are stitched together (§II-D6). */
enum class StitchMode
{
    Concrete,    ///< pin the predecessor state to the model's values
    Constrained, ///< carry the full path condition backward (complete but
                 ///< as expensive as forward execution)
};

/** Precondition factory: extra constraints over a cycle's fresh variables
 *  (preconditioned symbolic execution, §II-E1 — e.g. legal opcodes). */
using PreconditionFn = std::function<std::vector<smt::TermRef>(
    smt::TermManager &, const sym::BoundState &)>;

/** One cycle of the generated trigger: concrete values for every input. */
struct TriggerCycle
{
    std::map<rtl::SignalId, std::uint64_t> inputs;
};

/** Engine configuration. */
struct Options
{
    /** Maximum trigger length in instructions (§II-D5). */
    int bound = 8;
    /** Eq. 1: reject intermediate states with too many non-reset regs. */
    bool fastValidationDiff = true;
    /** Eq. 2: reject repeated intermediate states. */
    bool fastValidationRepeat = true;
    /** §II-D3: restrict symbolic registers to the assertion's cone. */
    bool useConeOfInfluence = true;
    /** Cycle stitching mode. */
    StitchMode stitch = StitchMode::Concrete;
    /**
     * On the assertion iteration, also pin registers the violation
     * constrains whose model value equals reset (forged-state capture).
     * Helps bugs whose violating state forges checker registers (b31's
     * load-tracking pair) at the cost of harder targets elsewhere; the
     * driver retries with this flipped when the first search fails.
     */
    bool pinAssertionState = false;
    /** §II-D7: total feedback re-exploration budget. */
    int maxFeedbackRounds = 128;
    /** Persistent incremental SAT backend for the search's queries (the
     *  `--no-incremental` ablation flips this off for a fresh SAT
     *  instance per query). This and the five solver fields after it
     *  take their defaults from smt::SolverOptions. */
    bool incrementalSolver = smt::SolverOptions{}.incremental;
    /** Per-query SAT conflict budget (-1 = unlimited). A query that
     *  exhausts it is retried once with 4x the budget; a still-Unknown
     *  query marks the search incomplete instead of pruning the branch. */
    std::int64_t solverConflictBudget = smt::SolverOptions{}.conflictBudget;
    /**
     * Witness-sensitivity fallback: the stitching heuristics steer by the
     * concrete models the solver returns, so a backend whose witness
     * selection differs (the persistent instance's retained clauses and
     * variable numbering) can derail a search the fresh backend closes in
     * a handful of iterations. With this on, an incremental search that
     * exhausts its budget — and not because of conflict-budget Unknowns,
     * which would recur — is rerun once on the fresh backend.
     */
    bool incrementalFallback = true;
    /** Learnt-clause minimization in conflict analysis (the
     *  `--no-minimize` ablation flips this off). */
    bool solverMinimize = smt::SolverOptions{}.minimize;
    /** Racer threads for the solver's parallel escalation stages
     *  (`--solver-threads`; 1 = sequential, bit-for-bit the baseline). */
    int solverThreads = smt::SolverOptions{}.threads;
    /** Portfolio-race stage of the escalation chain (`--no-portfolio`). */
    bool solverPortfolio = smt::SolverOptions{}.portfolio;
    /** Per-cube conflict budget for cube-and-conquer (`--cube-budget`;
     *  0 = auto). */
    std::int64_t solverCubeBudget = smt::SolverOptions{}.cubeBudget;
    /** Deleted settings; see smt::RemovedOption. */
    smt::RemovedOption solverRewrite, solverPreprocess, solverAdaptive;
    /**
     * Iteration patience for the incremental attempt when the fallback is
     * armed: past this many iterations the search concedes to the fresh
     * rerun instead of wandering to full budget exhaustion (converging
     * searches close within a handful of iterations; derailed ones run to
     * hundreds). 0 disables the early concession.
     */
    int incrementalPatienceIterations = 16;
    /** Per-level cap on rejected candidate models before backtracking. */
    int maxCandidatesPerLevel = 32;
    /** Wall-clock limit in seconds (0 = unlimited). */
    double timeLimitSeconds = 0.0;
    /**
     * Concolic hand-off origin (the fuzzer bridge): concrete register
     * values that replace the architectural reset values everywhere the
     * search consults them — both the state the backward walk terminates
     * against and the value non-symbolic cone registers are pinned to.
     * Registers absent from the map keep their reset values. With this
     * set, a Found trigger drives the design from the *snapshot* to the
     * violation, so it is replayable only after a concrete prefix that
     * reaches the snapshot (the caller validates the stitched whole).
     */
    std::map<rtl::SignalId, std::uint64_t> initialState;
    /** Preconditions over each cycle's inputs (empty = none). */
    PreconditionFn preconditions;
    /**
     * End-to-end validation hook: called with a candidate trigger before
     * the engine reports success. Returning false rejects the trigger
     * (the concrete stitching's completeness trade-off can admit input
     * sequences whose unpinned state diverges on real hardware; the
     * Coppelia driver validates by concrete replay, mirroring the
     * paper's FPGA check) and the search continues.
     */
    std::function<bool(const std::vector<TriggerCycle> &)>
        validator;
    /** Forward-exploration settings (search heuristic, fork limits). */
    sym::ExplorerOptions explorer;
};

/** Why the engine stopped. */
enum class Outcome
{
    Found,           ///< trigger generated
    NoViolation,     ///< the assertion cannot be violated in one step from
                     ///< any state (exploration exhausted on iteration 1)
    BoundExceeded,   ///< no trigger within the configured bound
    BudgetExhausted, ///< feedback rounds or time limit exhausted
};

const char *outcomeName(Outcome o);

/** Engine result. */
struct TriggerResult
{
    Outcome outcome = Outcome::NoViolation;
    /** Input vectors from the reset cycle to the violating cycle. */
    std::vector<TriggerCycle> cycles;
    /** Backward iterations executed (One Instruction Generation count). */
    int iterations = 0;
    /** Feedback re-entries taken (§II-D7). */
    int feedbackRounds = 0;
    /**
     * True when at least one solver query stayed Unknown (conflict budget
     * exhausted) even after the retry. The search then pruned a branch it
     * never refuted, so a non-Found outcome means "incomplete search",
     * not "no violation exists".
     */
    bool solverIncomplete = false;
    double seconds = 0.0;
    StatGroup stats;

    bool found() const { return outcome == Outcome::Found; }
};

/** The backward symbolic execution engine. */
class BackwardEngine
{
  public:
    BackwardEngine(const rtl::Design &design, Options opts = {});

    /** Build a trigger for a violation of @p assertion. */
    TriggerResult buildTrigger(const props::Assertion &assertion);

    /** Registers made symbolic for the given assertion (after the cone
     *  restriction) — exposed for diagnostics and benches. */
    std::vector<rtl::SignalId>
    symbolicRegisters(const props::Assertion &assertion) const;

  private:
    /** One full search on the chosen backend (buildTrigger may run two).
     *  The fallback rerun passes use_minimization=false so the recovery
     *  path sees the witness stream of the unminimized fresh solver. */
    TriggerResult searchTrigger(const props::Assertion &assertion,
                                bool use_incremental,
                                bool use_minimization = true);

    const rtl::Design &design_;
    Options opts_;
};

} // namespace coppelia::bse

#endif // COPPELIA_BSE_ENGINE_HH
