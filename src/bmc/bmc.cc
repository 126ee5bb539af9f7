#include "bmc/bmc.hh"

#include "rtl/sim.hh"
#include "trace/trace.hh"
#include "sym/lower.hh"
#include "util/logging.hh"
#include "util/timer.hh"

namespace coppelia::bmc
{

using rtl::SignalId;
using smt::TermRef;

const char *
presetName(Preset p)
{
    switch (p) {
      case Preset::IfvLike: return "ifv-like";
      case Preset::EbmcLike: return "ebmc-like";
    }
    return "?";
}

namespace
{

/** Per-cycle unrolling frame. */
struct Frame
{
    sym::Binding binding; ///< register + input terms feeding this cycle
    std::unordered_map<SignalId, TermRef> inputVars;
};

/** Replay trace inputs concretely from reset; true if the assertion
 *  fires within the trace length. */
bool
replayFromReset(const rtl::Design &design,
                const props::Assertion &assertion, const BmcResult &res)
{
    rtl::Simulator sim(design);
    for (const BmcTraceStep &step : res.trace) {
        for (const auto &[sig, value] : step.inputs)
            sim.setInput(sig, value);
        sim.step();
        if (!props::holds(design, assertion, sim.env()))
            return true;
    }
    return false;
}

} // namespace

BmcResult
checkAssertion(const rtl::Design &design,
               const props::Assertion &assertion, const BmcOptions &opts)
{
    trace::Span span("bmc.check", "bmc");
    Timer timer;
    BmcResult res;
    smt::TermManager tm;
    smt::SolverOptions solver_opts;
    solver_opts.incremental = opts.incrementalSolver;
    solver_opts.conflictBudget = opts.solverConflictBudget;
    solver_opts.minimize = opts.solverMinimize;
    smt::Solver solver(tm, solver_opts);

    // Initial state: reset constants (EbmcLike) or free variables
    // (IfvLike).
    std::unordered_map<SignalId, TermRef> state;
    std::unordered_map<SignalId, TermRef> initial_vars;
    for (SignalId sig = 0; sig < design.numSignals(); ++sig) {
        const rtl::Signal &s = design.signal(sig);
        if (s.kind != rtl::SignalKind::Register)
            continue;
        if (opts.preset == Preset::IfvLike) {
            TermRef v = tm.mkVar("s0_" + s.name, s.width);
            state[sig] = v;
            initial_vars[sig] = v;
        } else {
            state[sig] = tm.mkConst(s.width, s.resetValue.bits());
        }
    }

    const int max_bound = opts.preset == Preset::IfvLike ? 1
                                                         : opts.maxBound;
    std::vector<TermRef> path; // accumulated input constraints
    // The assertion at every depth whose query came back Unsat, assumed
    // by every later query: it removes no witness and keeps the whole
    // unrolling in the query's cone (see the file comment).
    std::vector<TermRef> refuted;
    std::vector<std::unordered_map<SignalId, TermRef>> input_vars_per_t;

    for (int depth = 1; depth <= max_bound; ++depth) {
        if (opts.timeLimitSeconds > 0 &&
            timer.seconds() > opts.timeLimitSeconds)
            break;

        // Fresh inputs for this step.
        sym::Binding binding = state;
        std::unordered_map<SignalId, TermRef> ivars;
        for (SignalId sig = 0; sig < design.numSignals(); ++sig) {
            const rtl::Signal &s = design.signal(sig);
            if (s.kind != rtl::SignalKind::Input)
                continue;
            // Appended piecewise: GCC 12 flags `"i" + std::to_string(...)`
            // with a false-positive -Wrestrict.
            std::string name = "i";
            name += std::to_string(depth);
            name += '_';
            name += s.name;
            TermRef v = tm.mkVar(name, s.width);
            binding[sig] = v;
            ivars[sig] = v;
            if (opts.insnConstraint && s.name == "insn")
                path.push_back(opts.insnConstraint(tm, v));
        }
        input_vars_per_t.push_back(ivars);

        // Monolithic transition relation (control branches as ite terms).
        sym::Lowering lowering(design, tm, binding, /*branches_as_ite=*/true);
        std::unordered_map<SignalId, TermRef> next;
        for (SignalId sig = 0; sig < design.numSignals(); ++sig) {
            const rtl::Signal &s = design.signal(sig);
            if (s.kind != rtl::SignalKind::Register)
                continue;
            if (s.def == rtl::NoExpr) {
                next[sig] = *lowering.lowerSignal(sig);
                continue;
            }
            auto t = lowering.lower(s.def);
            if (!t)
                panic("bmc lowering suspended");
            next[sig] = *t;
        }

        // Violation at this depth?
        sym::Lowering assert_lower(design, tm, next,
                                   /*branches_as_ite=*/true);
        auto safe = assert_lower.lower(assertion.cond);
        if (!safe)
            panic("bmc assertion lowering suspended");
        std::vector<TermRef> query = path;
        query.push_back(tm.mkNot(*safe));
        query.insert(query.end(), refuted.begin(), refuted.end());

        smt::Model model;
        smt::Result qr = solver.check(query, &model);
        if (qr == smt::Result::Unknown) {
            // Budget died: retry once at 4x. A still-Unknown depth is
            // recorded as incomplete — "no violation up to bound k"
            // would otherwise silently include unexplored depths.
            res.stats.inc("solver_unknowns");
            if (opts.solverConflictBudget > 0)
                qr = solver.escalate(query, &model);
            if (qr == smt::Result::Unknown) {
                res.stats.inc("solver_unknowns_final");
                res.solverIncomplete = true;
            }
        }
        if (qr == smt::Result::Sat) {
            res.found = true;
            res.depth = depth;
            for (const auto &[sig, var] : initial_vars)
                res.initialState[sig] = tm.eval(var, model);
            res.startsAtReset = true;
            for (const auto &[sig, value] : res.initialState) {
                if (value != design.signal(sig).resetValue.bits())
                    res.startsAtReset = false;
            }
            for (const auto &ivars_t : input_vars_per_t) {
                BmcTraceStep step;
                for (const auto &[sig, var] : ivars_t)
                    step.inputs[sig] = tm.eval(var, model);
                res.trace.push_back(std::move(step));
            }
            res.replayableFromReset = replayFromReset(design, assertion, res);
            break;
        }
        if (qr == smt::Result::Unsat)
            refuted.push_back(*safe);
        state = std::move(next);
    }

    res.stats.merge(solver.stats(), "solver_");
    res.seconds = timer.seconds();
    return res;
}

} // namespace coppelia::bmc
