#include "bse/engine.hh"

#include <algorithm>
#include <set>
#include <unordered_set>

#include "bse/recorder.hh"
#include "coi/coi.hh"
#include "metrics/metrics.hh"
#include "solver/querylog.hh"
#include "trace/trace.hh"
#include "util/logging.hh"
#include "util/timer.hh"

namespace coppelia::bse
{

using rtl::SignalId;
using smt::Model;
using smt::TermRef;
using sym::BoundState;

const char *
outcomeName(Outcome o)
{
    switch (o) {
      case Outcome::Found: return "found";
      case Outcome::NoViolation: return "no-violation";
      case Outcome::BoundExceeded: return "bound-exceeded";
      case Outcome::BudgetExhausted: return "budget-exhausted";
    }
    return "?";
}

BackwardEngine::BackwardEngine(const rtl::Design &design, Options opts)
    : design_(design), opts_(std::move(opts))
{}

std::vector<SignalId>
BackwardEngine::symbolicRegisters(const props::Assertion &assertion) const
{
    std::vector<SignalId> regs;
    if (opts_.useConeOfInfluence) {
        coi::CoiResult cone = coi::analyze(design_, assertion.vars);
        regs.assign(cone.coneRegisters.begin(), cone.coneRegisters.end());
    } else {
        for (SignalId sig = 0; sig < design_.numSignals(); ++sig) {
            if (design_.signal(sig).kind == rtl::SignalKind::Register)
                regs.push_back(sig);
        }
    }
    std::sort(regs.begin(), regs.end());
    return regs;
}

namespace
{

/** Per-iteration search state. */
struct Level
{
    BoundState bound;
    /** Concrete-stitch target: required post-state (empty on level 0). */
    std::unordered_map<SignalId, std::uint64_t> targetState;
    /** Exclusion constraints from rejected candidates / feedback. */
    std::vector<TermRef> excludes;
    int candidatesTried = 0;

    // Result of the successful exploration of this level:
    std::vector<TermRef> leafPathCond;
    std::unordered_map<SignalId, TermRef> leafNextRegs;
    TermRef targetTerm = smt::NoTerm;
    std::unordered_map<SignalId, std::uint64_t> predState;
    TriggerCycle inputs;
    Model model;
    /** Constrained mode: the accumulated condition over all later cycles. */
    TermRef accum = smt::NoTerm;
};

/** Serialize a predecessor state for the Eq. 2 no-repeat rule. */
std::vector<std::pair<SignalId, std::uint64_t>>
stateKey(const std::unordered_map<SignalId, std::uint64_t> &state)
{
    std::vector<std::pair<SignalId, std::uint64_t>> key(state.begin(),
                                                        state.end());
    std::sort(key.begin(), key.end());
    return key;
}

} // namespace

TriggerResult
BackwardEngine::buildTrigger(const props::Assertion &assertion)
{
    TriggerResult result = searchTrigger(assertion, opts_.incrementalSolver);
    if (!opts_.incrementalSolver || !opts_.incrementalFallback)
        return result;
    if (result.outcome != Outcome::BudgetExhausted || result.solverIncomplete)
        return result;

    // Witness-sensitivity fallback: the stitching search steers by the
    // concrete witnesses the backend returns, and the persistent
    // instance's retained clauses and variable numbering can select
    // models that send a search wandering where the fresh backend's
    // all-False bias converges. When the incremental attempt exhausts its
    // budget (and not because of an explicit conflict-budget Unknown,
    // which would hit the fresh backend identically), rerun once with the
    // known-good fresh witness stream before reporting failure. The rerun
    // also turns learnt-clause minimization off, the configuration whose
    // witness stream the stitching heuristics were tuned against.
    trace::instant("bse.fallback", "bse");
    recorder::event("fallback", "", -1);
    TriggerResult fresh = searchTrigger(assertion, /*use_incremental=*/false,
                                        /*use_minimization=*/false);
    fresh.stats.merge(result.stats);
    fresh.stats.inc("incremental_fallbacks");
    fresh.iterations += result.iterations;
    fresh.feedbackRounds += result.feedbackRounds;
    fresh.seconds += result.seconds;
    return fresh;
}

TriggerResult
BackwardEngine::searchTrigger(const props::Assertion &assertion,
                              bool use_incremental, bool use_minimization)
{
    trace::Span search_span("bse.search", "bse");
    Timer timer;
    TriggerResult result;

    smt::TermManager tm;
    smt::SolverOptions solver_opts;
    solver_opts.incremental = use_incremental;
    solver_opts.conflictBudget = opts_.solverConflictBudget;
    solver_opts.minimize = use_minimization && opts_.solverMinimize;
    solver_opts.threads = opts_.solverThreads;
    solver_opts.portfolio = opts_.solverPortfolio;
    solver_opts.cubeBudget = opts_.solverCubeBudget;
    smt::Solver solver(tm, solver_opts);
    sym::CycleExplorer explorer(design_, tm, solver, opts_.explorer);

    // Three-valued check with escalation: Unknown means the conflict
    // budget died, NOT that the query is unsat. escalate() walks the
    // geometric budget ladder (the historical single 4x retry at the
    // defaults, rung-tagged in the query log) and, at solverThreads > 1,
    // the portfolio/cube parallel stages; a still-Unknown query taints
    // the whole search as incomplete (a non-Found outcome can then no
    // longer claim no violation exists).
    bool solver_incomplete = false;
    auto checkSolver = [&](const std::vector<TermRef> &query,
                           Model *model) -> smt::Result {
        smt::Result r = solver.check(query, model);
        if (r != smt::Result::Unknown)
            return r;
        result.stats.inc("solver_unknowns");
        if (opts_.solverConflictBudget > 0 || opts_.solverThreads > 1) {
            r = solver.escalate(query, model);
            if (r != smt::Result::Unknown) {
                result.stats.inc("solver_unknown_retries_recovered");
                return r;
            }
        }
        result.stats.inc("solver_unknowns_final");
        solver_incomplete = true;
        return smt::Result::Unknown;
    };

    const std::vector<SignalId> sym_regs = symbolicRegisters(assertion);
    const std::unordered_set<SignalId> sym_set(sym_regs.begin(),
                                               sym_regs.end());
    const int diff_threshold =
        static_cast<int>(sym_regs.size()) / 4 + 1; // Eq. 1

    auto reset_bits = [this](SignalId sig) -> std::uint64_t {
        // A concolic hand-off snapshot overrides the architectural reset
        // value: the search then walks back to the fuzzer's state instead.
        auto it = opts_.initialState.find(sig);
        if (it != opts_.initialState.end())
            return it->second;
        return design_.signal(sig).resetValue.bits();
    };

    // Binding for assertion lowering: non-symbolic registers read their
    // reset value (§II-D3: they cannot affect the property).
    auto lowerOverPostState =
        [&](rtl::ExprRef expr,
            const std::unordered_map<SignalId, TermRef> &next_regs)
        -> TermRef {
        sym::Binding binding;
        for (SignalId sig = 0; sig < design_.numSignals(); ++sig) {
            const rtl::Signal &s = design_.signal(sig);
            if (s.kind != rtl::SignalKind::Register)
                continue;
            auto it = next_regs.find(sig);
            binding[sig] = it != next_regs.end()
                               ? it->second
                               : tm.mkConst(s.width, reset_bits(sig));
        }
        sym::Lowering lowering(design_, tm, binding, {});
        auto t = lowering.lower(expr);
        if (!t)
            panic("assertion lowering hit a control branch");
        return *t;
    };

    // Exclude a model's assignment to this level's variables.
    auto modelExclusion = [&](const Level &level, const Model &model,
                              bool include_inputs) {
        TermRef conj = tm.mkTrue();
        for (const auto &[sig, var] : level.bound.regVars) {
            const int w = design_.signal(sig).width;
            conj = tm.mkAnd(conj,
                            tm.mkEq(var, tm.mkConst(
                                             w, tm.eval(var, model))));
        }
        if (include_inputs) {
            for (const auto &[sig, var] : level.bound.inputVars) {
                const int w = design_.signal(sig).width;
                conj = tm.mkAnd(
                    conj,
                    tm.mkEq(var, tm.mkConst(w, tm.eval(var, model))));
            }
        }
        return tm.mkNot(conj);
    };

    auto extractInputs = [&](const Level &level, const Model &model) {
        TriggerCycle cycle;
        for (const auto &[sig, var] : level.bound.inputVars)
            cycle.inputs[sig] = tm.eval(var, model);
        return cycle;
    };

    std::vector<Level> levels;
    std::set<std::vector<std::pair<SignalId, std::uint64_t>>> history;
    bool bound_hit = false;
    int iteration_counter = 0;
    // Query-log context hygiene: records emitted after this search (by
    // another engine on the same worker, or outside any search) must not
    // inherit this search's iteration/retry tags.
    struct ContextGuard
    {
        ~ContextGuard()
        {
            smt::querylog::context().iteration = -1;
            smt::querylog::context().retry = 0;
        }
    } context_guard;
    // Count of diversification (marching-set) rejects this search. A
    // converging search takes none; each one burns a full exploration
    // iteration, so a handful is a far earlier derailment signal than
    // the iteration-count patience alone.
    int marching_rejects = 0;

    auto makeLevel = [&](std::unordered_map<SignalId, std::uint64_t>
                             target) {
        Level level;
        level.bound =
            sym::bindCycle(design_, tm, sym_set, {},
                           "i" + std::to_string(iteration_counter) + "_");
        level.targetState = std::move(target);
        return level;
    };

    levels.push_back(makeLevel({}));

    // Assemble the final result once the reset state satisfies the top
    // level's constraints (inputs are re-extracted from @p reset_model for
    // the level that closed the search).
    auto assemble = [&](const Model &reset_model) {
        result.cycles.clear();
        if (opts_.stitch == StitchMode::Constrained) {
            // The final model covers every cycle's variables.
            for (auto it = levels.rbegin(); it != levels.rend(); ++it)
                result.cycles.push_back(extractInputs(*it, reset_model));
        } else {
            Level &top = levels.back();
            top.inputs = extractInputs(top, reset_model);
            for (auto it = levels.rbegin(); it != levels.rend(); ++it)
                result.cycles.push_back(it->inputs);
        }
    };

    while (true) {
        if (opts_.timeLimitSeconds > 0 &&
            timer.seconds() > opts_.timeLimitSeconds) {
            result.outcome = Outcome::BudgetExhausted;
            break;
        }

        // Incremental-attempt patience: a search this far past the typical
        // convergence point has almost certainly been derailed by witness
        // selection; concede to the fresh fallback instead of wandering to
        // full budget exhaustion. Marching rejects are the sharper signal:
        // a converging search takes none, while each one costs a whole
        // exploration iteration, so a few of them concede long before the
        // iteration patience would.
        if (use_incremental && opts_.incrementalFallback &&
            ((opts_.incrementalPatienceIterations > 0 &&
              iteration_counter >= opts_.incrementalPatienceIterations) ||
             marching_rejects >= 3)) {
            result.stats.inc("incremental_patience_exhausted");
            result.outcome = Outcome::BudgetExhausted;
            break;
        }

        // One span per backward iteration (One Instruction Generation +
        // the validation/stitching that follows); every continue/break
        // path below closes it.
        trace::Span iteration_span("bse.iteration", "bse");
        Level &level = levels.back();
        const std::size_t depth = levels.size();
        ++iteration_counter;
        ++result.iterations;
        result.stats.inc("one_instruction_generations");
        // Live search heartbeat: iteration count and frontier depth land
        // in this worker's slot every iteration, so the scheduler's
        // stall detector (and /status) can tell "still iterating" from
        // "wedged inside one solve" long before the watchdog deadline.
        static metrics::Counter *iterations_total = metrics::counter(
            "bse_iterations",
            "backward-engine One Instruction Generation iterations");
        iterations_total->inc();
        metrics::heartbeat("bse.iteration",
                           static_cast<std::uint64_t>(iteration_counter),
                           depth);
        smt::querylog::context().iteration = iteration_counter;
        recorder::event("iteration", "", iteration_counter, depth,
                        static_cast<std::uint64_t>(result.feedbackRounds));

        // Preconditioned symbolic execution (§II-E1).
        std::vector<TermRef> preconds;
        if (opts_.preconditions)
            preconds = opts_.preconditions(tm, level.bound);
        for (TermRef ex : level.excludes)
            preconds.push_back(ex);

        // Fast-validation diff rule (Eq. 1) in constraint form: candidate
        // predecessor states may differ from reset in at most |s|/4 + 1
        // registers. The bound is applied with iterative deepening
        // (1, 2, 4, ... up to the Eq. 1 threshold) so the SAT solver
        // cannot pad unconstrained registers with junk the next
        // iteration would have to reproduce — minimally-different states
        // are exactly the ones likely to backtrack to reset.
        TermRef diff_sum = tm.mkConst(8, 0);
        for (const auto &[sig, var] : level.bound.regVars) {
            const int w = design_.signal(sig).width;
            TermRef differs =
                tm.mkNe(var, tm.mkConst(w, reset_bits(sig)));
            diff_sum = tm.mkAdd(diff_sum, tm.mkZExt(differs, 8));
        }
        std::vector<int> diff_schedule;
        if (opts_.fastValidationDiff) {
            for (int bound = 1; bound < diff_threshold; bound *= 2)
                diff_schedule.push_back(bound);
            diff_schedule.push_back(diff_threshold);
        } else {
            diff_schedule.push_back(
                static_cast<int>(level.bound.regVars.size()));
        }

        // --- One Instruction Generation: explore one clock cycle ---------
        // Per leaf we first ask the cheap question "does the *reset* state
        // reach the target through this path?" (every register pinned
        // concrete: the solver unit-propagates the whole state). Only when
        // no leaf closes the search do we fall back to the first leaf that
        // reaches the target from *some* state — the intermediate state to
        // stitch backward from.
        bool found_candidate = false;
        bool closed_from_reset = false;
        Model candidate_model;
        Model closing_model;
        sym::Leaf candidate_leaf;
        TermRef candidate_target = smt::NoTerm;

        std::vector<TermRef> reset_pins;
        for (const auto &[sig, var] : level.bound.regVars) {
            const int w = design_.signal(sig).width;
            reset_pins.push_back(
                tm.mkEq(var, tm.mkConst(w, reset_bits(sig))));
        }

        // §II-D6 minimality: the witness a backend happens to return is not
        // canonical (the persistent instance's retained clauses and variable
        // numbering steer model selection differently from a fresh solver's
        // all-False bias), and every register a model leaves away from reset
        // becomes part of the next stitching target. One greedy pass — pin
        // each non-reset register back to reset, keep the pin if the query
        // stays satisfiable — makes the stitched state near-minimal
        // regardless of backend. Only the incremental backend needs it: the
        // fresh backend's zero bias already lands near-minimal, and its
        // witness stream is the ablation baseline, kept bit-for-bit intact.
        auto shrinkTowardReset = [&](const std::vector<TermRef> &query,
                                     Model *model) {
            if (!use_incremental)
                return;
            trace::Span shrink_span("bse.shrink", "bse");
            const std::uint64_t pins0 = result.stats.get("shrink_pins");
            const std::uint64_t bit_pins0 =
                result.stats.get("shrink_bit_pins");
            std::vector<std::pair<SignalId, TermRef>> regs(
                level.bound.regVars.begin(), level.bound.regVars.end());
            std::sort(regs.begin(), regs.end());
            std::vector<TermRef> pinned = query;
            std::vector<std::pair<SignalId, TermRef>> free_regs;
            for (const auto &[sig, var] : regs) {
                const int w = design_.signal(sig).width;
                const std::uint64_t cur = tm.eval(var, *model);
                if (cur == reset_bits(sig)) {
                    pinned.push_back(tm.mkEq(var, tm.mkConst(w, cur)));
                    continue;
                }
                std::vector<TermRef> trial = pinned;
                trial.push_back(
                    tm.mkEq(var, tm.mkConst(w, reset_bits(sig))));
                Model m;
                result.stats.inc("shrink_queries");
                // Plain check(), not checkSolver(): shrinking is
                // best-effort, so an Unknown here must not taint the
                // search as incomplete — the candidate's Sat verdict is
                // already established.
                if (solver.check(trial, &m) == smt::Result::Sat) {
                    result.stats.inc("shrink_pins");
                    *model = m;
                    pinned = std::move(trial);
                } else {
                    // Unpinnable registers are not frozen at the witness
                    // value: freezing would make every later pin decision
                    // conditional on which witness the backend happened to
                    // return, so two CNF simplification configurations
                    // could shrink the same candidate to different
                    // residual states. They get the bit-level pass below.
                    free_regs.emplace_back(sig, var);
                }
            }
            // Bit-level canonicalization of the registers the whole-
            // register pass could not return to reset. Each bit is pinned
            // to its reset value when satisfiable; a refused bit is
            // entailed to the complement by the pins already committed,
            // so after the scan the stitched register state is the unique
            // closest-to-reset satisfying assignment in scan order — a
            // function of the query alone, not of the witness the backend
            // returned. This is what keeps the search trajectory (and so
            // the generated trigger) stable across solver backends and
            // simplification configurations.
            for (const auto &[sig, var] : free_regs) {
                const int w = design_.signal(sig).width;
                const std::uint64_t reset = reset_bits(sig);
                for (int i = w - 1; i >= 0; --i) {
                    const std::uint64_t rbit = (reset >> i) & 1;
                    const TermRef bit_pin = tm.mkEq(
                        tm.mkExtract(var, i, i), tm.mkConst(1, rbit));
                    if (((tm.eval(var, *model) >> i) & 1) == rbit) {
                        pinned.push_back(bit_pin);
                        continue;
                    }
                    std::vector<TermRef> trial = pinned;
                    trial.push_back(bit_pin);
                    Model m;
                    result.stats.inc("shrink_bit_queries");
                    if (solver.check(trial, &m) == smt::Result::Sat) {
                        result.stats.inc("shrink_bit_pins");
                        *model = m;
                        pinned = std::move(trial);
                    }
                }
            }
            recorder::event("shrink", "", iteration_counter,
                            result.stats.get("shrink_pins") - pins0,
                            result.stats.get("shrink_bit_pins") -
                                bit_pins0);
        };

        for (int diff_bound : diff_schedule) {
        std::vector<TermRef> bounded_preconds = preconds;
        bounded_preconds.push_back(tm.mkUle(
            diff_sum,
            tm.mkConst(8, static_cast<std::uint64_t>(diff_bound))));
        explorer.explore(
            level.bound.binding, sym_regs, bounded_preconds,
            [&](const sym::Leaf &leaf) {
                // Build this leaf's target: assertion violation on the
                // first iteration, state matching afterwards.
                TermRef target;
                if (depth == 1) {
                    TermRef safe =
                        lowerOverPostState(assertion.cond, leaf.nextRegs);
                    target = tm.mkNot(safe);
                } else if (opts_.stitch == StitchMode::Constrained) {
                    // Rewrite the accumulated later-cycle condition over
                    // this leaf's next-state terms.
                    const Level &prev = levels[levels.size() - 2];
                    std::unordered_map<int, TermRef> subst;
                    for (const auto &[sig, var] : prev.bound.regVars) {
                        auto it = leaf.nextRegs.find(sig);
                        if (it != leaf.nextRegs.end())
                            subst[tm.term(var).varId] = it->second;
                    }
                    target = tm.substitute(prev.accum, subst);
                } else {
                    target = tm.mkTrue();
                    // Backward-progress rule: at least one pinned register
                    // must be *established by this cycle* (its pre-state
                    // value differs from the target). Pure hold paths
                    // satisfy the state match without converging toward
                    // reset; this is the constraint form of the paper's
                    // "paths not tending toward the initial state"
                    // heuristic.
                    TermRef progress = tm.mkFalse();
                    for (const auto &[sig, value] : level.targetState) {
                        auto it = leaf.nextRegs.find(sig);
                        if (it == leaf.nextRegs.end())
                            continue;
                        const int w = design_.signal(sig).width;
                        target = tm.mkAnd(
                            target,
                            tm.mkEq(it->second, tm.mkConst(w, value)));
                        auto pre = level.bound.regVars.find(sig);
                        if (pre != level.bound.regVars.end()) {
                            progress = tm.mkOr(
                                progress,
                                tm.mkNe(pre->second,
                                        tm.mkConst(w, value)));
                        }
                    }
                    target = tm.mkAnd(target, progress);
                }

                // Reset-state check first (cheap and decisive).
                std::vector<TermRef> reset_query = leaf.pathCond;
                reset_query.push_back(target);
                reset_query.insert(reset_query.end(), reset_pins.begin(),
                                   reset_pins.end());
                result.stats.inc("reset_checks");
                Model rmodel;
                if (checkSolver(reset_query, &rmodel) ==
                    smt::Result::Sat) {
                    closed_from_reset = true;
                    closing_model = rmodel;
                    candidate_leaf = leaf;
                    candidate_target = target;
                    return false; // search closed
                }

                // Otherwise remember the first intermediate candidate.
                if (!found_candidate) {
                    std::vector<TermRef> query = leaf.pathCond;
                    query.push_back(target);
                    result.stats.inc("violation_queries");
                    Model model;
                    if (checkSolver(query, &model) == smt::Result::Sat) {
                        shrinkTowardReset(query, &model);
                        found_candidate = true;
                        candidate_model = model;
                        candidate_leaf = leaf;
                        candidate_target = target;
                    }
                }
                return true;
            });
        if (closed_from_reset || found_candidate)
            break;
        } // diff_schedule

        if (closed_from_reset) {
            recorder::event("candidate", "reset", iteration_counter, depth);
            // Record the closing level's choices and assemble the trigger.
            Level &top = levels.back();
            top.leafPathCond = candidate_leaf.pathCond;
            top.leafNextRegs = candidate_leaf.nextRegs;
            top.targetTerm = candidate_target;
            top.model = closing_model;
            assemble(closing_model);

            // End-to-end validation (the concrete stitching may have left
            // unpinned state inconsistent): a rejected trigger excludes
            // this closing assignment and the search continues.
            if (opts_.validator && !opts_.validator(result.cycles)) {
                trace::instant("bse.replay_reject", "bse");
                recorder::event("reject", "replay_validation_rejects",
                                iteration_counter, depth);
                result.stats.inc("replay_validation_rejects");
                top.excludes.push_back(modelExclusion(
                    top, closing_model, /*include_inputs=*/true));
                ++result.feedbackRounds;
                if (result.feedbackRounds > opts_.maxFeedbackRounds) {
                    result.outcome = Outcome::BudgetExhausted;
                    break;
                }
                continue;
            }
            result.outcome = Outcome::Found;
            break;
        }

        if (!found_candidate) {
            // --- Feedback Generation (§II-D7) -----------------------------
            if (depth == 1) {
                result.outcome =
                    bound_hit ? Outcome::BoundExceeded
                              : Outcome::NoViolation;
                break;
            }
            trace::instant("bse.feedback", "bse");
            // "unsat": the level produced no satisfiable candidate at
            // all — the strongest rejection reason the report can show.
            recorder::event("feedback", "unsat", iteration_counter,
                            depth - 1);
            levels.pop_back();
            Level &prev = levels.back();
            prev.excludes.push_back(
                modelExclusion(prev, prev.model, /*include_inputs=*/true));
            ++result.feedbackRounds;
            result.stats.inc("feedback_rounds");
            if (result.feedbackRounds > opts_.maxFeedbackRounds) {
                result.outcome = Outcome::BudgetExhausted;
                break;
            }
            continue;
        }

        if (logLevel() >= LogLevel::Debug) {
            std::string desc = "level " + std::to_string(depth) +
                               " candidate pred-state:";
            for (const auto &[sig, var] : level.bound.regVars) {
                const std::uint64_t v = tm.eval(var, candidate_model);
                if (v != reset_bits(sig))
                    desc += " " + design_.signal(sig).name + "=" +
                            std::to_string(v);
            }
            desc += " | inputs:";
            for (const auto &[sig, var] : level.bound.inputVars) {
                desc += " " + design_.signal(sig).name + "=" +
                        std::to_string(tm.eval(var, candidate_model));
            }
            debugLog(desc);
        }

        recorder::event("candidate", "", iteration_counter, depth);
        // Record the candidate on this level. The predecessor state to
        // stitch is the *subset* of registers the model pushed away from
        // reset (§II-D6: concrete values for a subset of internal
        // signals); registers at their reset value are left free in the
        // next iteration, trading completeness for tractable targets.
        level.leafPathCond = candidate_leaf.pathCond;
        level.leafNextRegs = candidate_leaf.nextRegs;
        level.targetTerm = candidate_target;
        level.model = candidate_model;
        level.inputs = extractInputs(level, candidate_model);
        level.predState.clear();
        // On the assertion iteration the violating state may *forge*
        // checker registers whose model value happens to equal reset
        // (e.g. a load-tracking flag asserted while its companion fields
        // read zero): every register the violation condition constrains
        // is pinned, so later iterations must actually establish the
        // whole forged state.
        std::unordered_set<int> target_var_ids;
        if (depth == 1 && opts_.pinAssertionState) {
            std::vector<int> vars;
            tm.collectVars(candidate_target, vars);
            target_var_ids.insert(vars.begin(), vars.end());
        }
        for (const auto &[sig, var] : level.bound.regVars) {
            const std::uint64_t value = tm.eval(var, candidate_model);
            if (value != reset_bits(sig) ||
                target_var_ids.count(tm.term(var).varId))
                level.predState[sig] = value;
        }
        if (opts_.stitch == StitchMode::Constrained) {
            TermRef acc = candidate_target;
            for (TermRef t : candidate_leaf.pathCond)
                acc = tm.mkAnd(acc, t);
            level.accum = acc;
        }

        // --- Fast Validation (§II-D4) -------------------------------------
        auto reject = [&](const char *stat) {
            recorder::event("reject", stat, iteration_counter, depth);
            result.stats.inc(stat);
            level.excludes.push_back(
                modelExclusion(level, candidate_model,
                               /*include_inputs=*/false));
            ++level.candidatesTried;
        };

        bool rejected = false;
        if (opts_.fastValidationDiff &&
            static_cast<int>(level.predState.size()) > diff_threshold) {
            // The Eq. 1 bound is also enforced as a query constraint;
            // this is the belt-and-braces post-check.
            reject("fastval_diff_rejects");
            rejected = true;
        }
        if (!rejected && opts_.fastValidationRepeat) {
            auto key = stateKey(level.predState);
            if (history.count(key)) {
                reject("fastval_repeat_rejects");
                rejected = true;
            } else {
                history.insert(key);
            }
        }

        // Diversification: a chain that keeps stitching the *same register
        // set* with marching values (e.g. pc walking backward 4 bytes per
        // level) never converges toward reset. After three consecutive
        // stitched levels pinning an identical set, further candidates
        // with that set are rejected, steering the solver to a different
        // chain.
        if (!rejected && opts_.fastValidationRepeat && levels.size() >= 4) {
            std::vector<SignalId> key_set;
            for (const auto &[sig, value] : level.predState) {
                (void)value;
                key_set.push_back(sig);
            }
            std::sort(key_set.begin(), key_set.end());
            auto set_of = [](const Level &l) {
                std::vector<SignalId> s;
                for (const auto &[sig, value] : l.targetState) {
                    (void)value;
                    s.push_back(sig);
                }
                std::sort(s.begin(), s.end());
                return s;
            };
            const std::vector<SignalId> prev1 = set_of(levels.back());
            const std::vector<SignalId> prev2 =
                set_of(levels[levels.size() - 2]);
            const std::vector<SignalId> prev3 =
                set_of(levels[levels.size() - 3]);
            if (key_set == prev1 && key_set == prev2 &&
                key_set == prev3 && !key_set.empty()) {
                reject("fastval_marching_rejects");
                ++marching_rejects;
                rejected = true;
            }
        }

        // --- Bound Checking (§II-D5) ---------------------------------------
        if (!rejected &&
            static_cast<int>(levels.size()) >= opts_.bound) {
            bound_hit = true;
            reject("bound_rejects");
            rejected = true;
        }

        if (rejected) {
            if (level.candidatesTried > opts_.maxCandidatesPerLevel) {
                // Give up on this level; feed back to the previous one.
                if (depth == 1) {
                    result.outcome = bound_hit ? Outcome::BoundExceeded
                                               : Outcome::BudgetExhausted;
                    break;
                }
                trace::instant("bse.feedback", "bse");
                recorder::event("feedback", "", iteration_counter,
                                depth - 1);
                levels.pop_back();
                Level &prev = levels.back();
                prev.excludes.push_back(modelExclusion(
                    prev, prev.model, /*include_inputs=*/true));
                ++result.feedbackRounds;
                result.stats.inc("feedback_rounds");
                if (result.feedbackRounds > opts_.maxFeedbackRounds) {
                    result.outcome = Outcome::BudgetExhausted;
                    break;
                }
            }
            continue; // re-explore (same or previous level)
        }

        // --- Stitching Cycles (§II-D6): open the next iteration ----------
        result.stats.inc("stitched_cycles");
        trace::instant("bse.stitch", "bse");
        recorder::event("stitch", "", iteration_counter, depth + 1,
                        static_cast<std::uint64_t>(level.predState.size()));
        levels.push_back(makeLevel(level.predState));
    }

    if (result.outcome != Outcome::Found)
        result.cycles.clear();
    // A search that pruned un-refuted branches cannot claim completeness:
    // downgrade "no violation exists" to a budget verdict and surface the
    // incompleteness so the campaign can schedule a retry.
    result.solverIncomplete = solver_incomplete;
    if (solver_incomplete && result.outcome == Outcome::NoViolation)
        result.outcome = Outcome::BudgetExhausted;
    result.stats.merge(explorer.stats());
    result.stats.inc("solver_queries", solver.stats().get("queries"));
    result.stats.inc("solver_sat_calls", solver.stats().get("sat_calls"));
    result.stats.inc("solver_cache_hits",
                     solver.stats().get("cache_hits"));
    result.stats.inc("solver_model_reuse_hits",
                     solver.stats().get("model_reuse_hits"));
    result.stats.inc("solver_trivially_unsat",
                     solver.stats().get("trivially_unsat"));
    result.stats.inc("solver_incremental_queries",
                     solver.stats().get("incremental_queries"));
    result.stats.inc("solver_blast_cache_hits",
                     solver.stats().get("blast_cache_hits"));
    result.stats.inc("solver_blast_terms_lowered",
                     solver.stats().get("blast_terms_lowered"));
    result.stats.inc("solver_learnts_retained",
                     solver.stats().get("learnts_retained"));
    result.stats.inc("solver_cache_evictions",
                     solver.stats().get("cache_evictions"));
    result.stats.inc("solver_solve_us", solver.stats().get("solve_us"));
    result.stats.inc("solver_sat_conflicts",
                     solver.stats().get("sat_conflicts"));
    result.stats.inc("solver_sat_decisions",
                     solver.stats().get("sat_decisions"));
    result.stats.inc("solver_sat_propagations",
                     solver.stats().get("sat_propagations"));
    result.stats.inc("solver_sat_restarts",
                     solver.stats().get("sat_restarts"));
    result.stats.inc("solver_learnt_lits_saved",
                     solver.stats().get("learnt_lits_saved"));
    result.stats.inc("solver_escalations", solver.stats().get("escalations"));
    result.stats.inc("solver_escalation_rungs",
                     solver.stats().get("escalation_rungs"));
    result.stats.inc("solver_portfolio_races",
                     solver.stats().get("portfolio_races"));
    result.stats.inc("solver_portfolio_wins",
                     solver.stats().get("portfolio_wins"));
    result.stats.inc("solver_portfolio_clauses_exported",
                     solver.stats().get("portfolio_clauses_exported"));
    result.stats.inc("solver_portfolio_clauses_imported",
                     solver.stats().get("portfolio_clauses_imported"));
    result.stats.inc("solver_cube_escalations",
                     solver.stats().get("cube_escalations"));
    result.stats.inc("solver_cube_splits", solver.stats().get("cube_splits"));
    result.stats.inc("solver_cube_sat_cubes",
                     solver.stats().get("cube_sat_cubes"));
    result.stats.inc("solver_cube_unsat_cubes",
                     solver.stats().get("cube_unsat_cubes"));
    result.stats.inc("solver_cube_unknown_cubes",
                     solver.stats().get("cube_unknown_cubes"));
    // Per-config win attribution carries dynamic names ("portfolio_win_"
    // + racer config); forward whatever configs actually won.
    for (const auto &[name, count] : solver.stats().all()) {
        if (name.rfind("portfolio_win_", 0) == 0)
            result.stats.inc("solver_" + name, count);
    }
    result.seconds = timer.seconds();
    return result;
}

} // namespace coppelia::bse
