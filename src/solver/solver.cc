#include "solver/solver.hh"

#include <algorithm>
#include <limits>
#include <span>

#include "metrics/metrics.hh"
#include "solver/bitblast.hh"
#include "solver/querylog.hh"
#include "solver/sat/sat.hh"
#include "trace/trace.hh"
#include "util/logging.hh"
#include "util/timer.hh"

namespace coppelia::smt
{

namespace
{

/** Live-registry mirrors of the per-instance stats_ counters, named
 *  after the JSONL telemetry keys the engine/bmc layers merge them to —
 *  the monitor's /metrics, campaign.jsonl, and the trace fold must
 *  agree on these totals (asserted by the campaign consistency test).
 *  Handles are interned once; each increment is one relaxed add. */
struct LiveCounters
{
    metrics::Counter *queries = metrics::counter(
        "solver_queries",
        "SMT facade queries (model-reuse hits included)");
    metrics::Counter *satCalls = metrics::counter(
        "solver_sat_calls", "SAT solves actually dispatched");
    metrics::Counter *incrementalQueries = metrics::counter(
        "solver_incremental_queries",
        "queries answered by the persistent incremental backend");
    metrics::Counter *budgetExhausted = metrics::counter(
        "solver_budget_exhausted",
        "SAT solves that returned Unknown on conflict budget");
    metrics::Histogram *solveUs = metrics::histogram(
        "smt.solve_us",
        {100, 1000, 10000, 100000, 1000000, 10000000},
        "latency of one SAT dispatch in microseconds (the region the "
        "smt.solve trace span brackets)");
    metrics::Counter *learntLitsSaved = metrics::counter(
        "solver_learnt_lits_saved",
        "literals removed from learnt clauses by minimization");
    metrics::Counter *escalations = metrics::counter(
        "solver_escalations",
        "queries escalated past the base conflict budget");
};

LiveCounters &
live()
{
    static LiveCounters counters;
    return counters;
}

} // namespace

Solver::Solver(TermManager &tm, SolverOptions opts) : tm_(tm), opts_(opts) {}

Solver::~Solver() = default;

bool
Solver::modelSatisfies(const std::vector<TermRef> &assertions,
                       ReuseSlot &slot)
{
    for (TermRef a : assertions) {
        auto [it, fresh] = slot.holds.try_emplace(a, false);
        if (fresh)
            it->second = tm_.eval(a, slot.model) != 0;
        if (!it->second)
            return false;
    }
    return true;
}

void
Solver::rememberModel(const Model &model)
{
    if (opts_.maxRecentModels == 0)
        return;
    if (recentModels_.size() < opts_.maxRecentModels) {
        recentModels_.push_back(ReuseSlot{model, {}});
        return;
    }
    // Ring replacement: overwrite the oldest slot instead of the previous
    // O(n) front-erase of the vector. Its memo described the old model.
    ReuseSlot &slot = recentModels_[recentNext_];
    slot.model = model;
    slot.holds.clear();
    recentNext_ = (recentNext_ + 1) % recentModels_.size();
}

Result
Solver::check(const std::vector<TermRef> &assertions, Model *model)
{
    stats_.inc("queries");
    live().queries->inc();

    // Constant-level short circuit: the simplifier folds trivially false
    // assertions to literal 0.
    for (TermRef a : assertions) {
        std::uint64_t k;
        if (tm_.isConst(a, &k) && k == 0) {
            stats_.inc("trivially_unsat");
            return Result::Unsat;
        }
    }

    // Counterexample reuse: a model from an earlier query may already
    // satisfy this one, skipping the SAT call entirely.
    for (ReuseSlot &slot : recentModels_) {
        if (modelSatisfies(assertions, slot)) {
            stats_.inc("model_reuse_hits");
            if (model)
                *model = slot.model;
            return Result::Sat;
        }
    }

    Model local;
    Result r = solveCore(assertions, &local);
    if (r == Result::Sat) {
        rememberModel(local);
        if (model)
            *model = std::move(local);
    }
    return r;
}

Result
Solver::checkWithBudget(const std::vector<TermRef> &assertions, Model *model,
                        std::int64_t conflict_budget)
{
    const std::int64_t saved = opts_.conflictBudget;
    opts_.conflictBudget = conflict_budget;
    Result r = check(assertions, model);
    opts_.conflictBudget = saved;
    return r;
}

Result
Solver::escalate(const std::vector<TermRef> &assertions, Model *model)
{
    stats_.inc("escalations");
    live().escalations->inc();
    if (opts_.conflictBudget <= 0)
        return Result::Unknown;
    // The budget comes from the command line; keep 4x from overflowing.
    constexpr std::int64_t kMaxBase =
        std::numeric_limits<std::int64_t>::max() / 4;
    querylog::context().retry = 1;
    const Result r = checkWithBudget(
        assertions, model, 4 * std::min(opts_.conflictBudget, kMaxBase));
    querylog::context().retry = 0;
    return r;
}

Result
Solver::solveCore(const std::vector<TermRef> &assertions, Model *model)
{
    stats_.inc("sat_calls");
    live().satCalls->inc();
    metrics::heartbeat("smt.solve", stats_.get("sat_calls"));
    // The SAT core's work in this dispatch, for the forensics record;
    // it stays zero when the backend answers before calling the core.
    sat::Solver::Counters work;
    // The span brackets exactly the region the solve_us counter times, so
    // a folded trace's smt.solve total, the solver_solve_us telemetry,
    // and the smt.solve_us registry histogram agree (the acceptance
    // cross-check between the three systems). Inside it, smt.blast,
    // sat.cdcl and smt.model split the time between the kernels.
    trace::Span span("smt.solve", "solver");
    Timer timer;
    Result r = opts_.incremental ? solveIncremental(assertions, model, work)
                                 : solveFresh(assertions, model, work);
    const auto us = static_cast<std::uint64_t>(timer.seconds() * 1e6);
    // Close with the timer so the span excludes the stats/querylog
    // bookkeeping below: on a chatty search the per-query bookkeeping
    // would otherwise accumulate into a systematic fold-vs-counter gap.
    span.close();
    stats_.inc("solve_us", us);
    live().solveUs->observe(us);
    querylog::Record rec;
    rec.assumptions = static_cast<std::uint32_t>(assertions.size());
    rec.conflicts = work.conflicts;
    rec.decisions = work.decisions;
    rec.propagations = work.propagations;
    rec.restarts = work.restarts;
    rec.learntLitsSaved = work.learntLitsSaved;
    rec.wallUs = us;
    rec.result = static_cast<int>(r);
    rec.incremental = opts_.incremental;
    querylog::record(rec);
    return r;
}

sat::Solver::Counters
Solver::addSatWork(const sat::Solver &sat,
                   const sat::Solver::Counters &before)
{
    const sat::Solver::Counters &now = sat.counters();
    sat::Solver::Counters work;
    work.conflicts = now.conflicts - before.conflicts;
    work.decisions = now.decisions - before.decisions;
    work.propagations = now.propagations - before.propagations;
    work.restarts = now.restarts - before.restarts;
    work.learntLitsSaved = now.learntLitsSaved - before.learntLitsSaved;
    stats_.inc("sat_conflicts", work.conflicts);
    stats_.inc("sat_decisions", work.decisions);
    stats_.inc("sat_propagations", work.propagations);
    stats_.inc("sat_restarts", work.restarts);
    stats_.inc("learnt_lits_saved", work.learntLitsSaved);
    live().learntLitsSaved->inc(work.learntLitsSaved);
    return work;
}

void
Solver::readModel(const BitBlaster &blaster, const sat::Solver &sat,
                  const std::vector<TermRef> &assertions, Model *model) const
{
    trace::Span span("smt.model", "solver");
    // Read back every theory variable that occurs in the assertions,
    // found in one walk over all of them.
    std::vector<int> vars;
    tm_.collectVars(assertions, vars);
    std::sort(vars.begin(), vars.end());
    for (int v : vars) {
        std::uint64_t bits = 0;
        const BitBlaster::Bits lits = blaster.varLits(v);
        for (std::size_t i = 0; i < lits.size(); ++i) {
            const sat::LBool b = sat.value(lits[i]);
            // The variable is in the assertions' cone, so the core
            // decided it; an unassigned bit means the decision set
            // missed it, and reading it as 0 would return a wrong model.
            if (b == sat::LBool::Undef)
                panic("model readback: bit ", i, " of variable ",
                      tm_.varName(v), " is unassigned");
            if (b == sat::LBool::True)
                bits |= 1ull << i;
        }
        model->set(v, bits);
    }
}

Result
Solver::solveFresh(const std::vector<TermRef> &assertions, Model *model,
                   sat::Solver::Counters &work)
{
    sat::Solver sat;
    sat.setMinimizeLearnts(opts_.minimize);
    BitBlaster blaster(tm_, sat);
    {
        trace::Span span("smt.blast", "solver");
        for (TermRef a : assertions) {
            if (tm_.widthOf(a) != 1)
                fatal("solver assertion is not boolean");
            blaster.assertTrue(a);
        }
    }
    if (sat.inconsistent())
        return Result::Unsat;

    sat::SatResult sr;
    {
        trace::Span span("sat.cdcl", "solver");
        sr = sat.solve({}, opts_.conflictBudget);
    }
    work = addSatWork(sat, {}); // a fresh core's counters start at zero

    switch (sr) {
      case sat::SatResult::Unsat:
        return Result::Unsat;
      case sat::SatResult::Unknown:
        stats_.inc("budget_exhausted");
        live().budgetExhausted->inc();
        return Result::Unknown;
      case sat::SatResult::Sat:
        break;
    }

    if (model)
        readModel(blaster, sat, assertions, model);
    return Result::Sat;
}

Result
Solver::solveIncremental(const std::vector<TermRef> &assertions, Model *model,
                         sat::Solver::Counters &work)
{
    if (!incSat_) {
        incSat_ = std::make_unique<sat::Solver>();
        incSat_->setMinimizeLearnts(opts_.minimize);
        incBlaster_ = std::make_unique<BitBlaster>(tm_, *incSat_);
    }
    stats_.inc("incremental_queries");
    live().incrementalQueries->inc();
    // Learnt clauses present before this query were derived while solving
    // earlier ones; they are implied by the (purely definitional) Tseitin
    // clauses, so carrying them over is sound and prunes this query too.
    stats_.inc("learnts_retained", incSat_->numLearnts());

    const std::uint64_t hits0 = incBlaster_->cacheHits();
    const std::uint64_t lowered0 = incBlaster_->termsLowered();

    // The previous query's model (a trail above level 0) must be undone
    // before this query's Tseitin clauses can be installed.
    incSat_->cancelToRoot();

    // Each assertion becomes an assumption on its indicator literal rather
    // than a unit clause: the frame it opens closes automatically when the
    // next query assumes a different set, and nothing asserted for one
    // candidate can leak into another.
    std::vector<sat::Lit> assumptions;
    assumptions.reserve(assertions.size());
    std::span<const sat::VarRange> cone;
    {
        trace::Span span("smt.blast", "solver");
        for (TermRef a : assertions) {
            if (tm_.widthOf(a) != 1)
                fatal("solver assertion is not boolean");
            assumptions.push_back(incBlaster_->blast(a)[0]);
        }
        cone = incBlaster_->cone(assertions);
    }
    // Canonical decision state per query: retained clauses keep their
    // pruning power, but model selection must not be steered by earlier
    // queries' saved phases — phase saving reproduces the previous
    // witness, and the BSE engine's stitching heuristics depend on the
    // fresh solver's all-False bias (model values near reset). Only the
    // assertions' cone is decided: every clause of the instance defines
    // a gate, is the constant-true unit or is implied by those, and the
    // cone is closed under gate inputs, so a conflict-free assignment of
    // it extends to a model of the whole instance, each gate outside it
    // taking the value its inputs give it. Earlier queries' circuits are
    // left unassigned.
    incSat_->resetDecisionState(cone);
    stats_.inc("blast_cache_hits", incBlaster_->cacheHits() - hits0);
    stats_.inc("blast_terms_lowered",
               incBlaster_->termsLowered() - lowered0);

    if (incSat_->inconsistent())
        return Result::Unsat;

    const sat::Solver::Counters before = incSat_->counters();
    sat::SatResult sr;
    {
        trace::Span span("sat.cdcl", "solver");
        sr = incSat_->solve(assumptions, opts_.conflictBudget);
    }
    work = addSatWork(*incSat_, before);

    switch (sr) {
      case sat::SatResult::Unsat:
        return Result::Unsat;
      case sat::SatResult::Unknown:
        stats_.inc("budget_exhausted");
        live().budgetExhausted->inc();
        return Result::Unknown;
      case sat::SatResult::Sat:
        break;
    }

    if (model)
        readModel(*incBlaster_, *incSat_, assertions, model);
    return Result::Sat;
}

void
Solver::resetIncremental()
{
    incBlaster_.reset();
    incSat_.reset();
}

} // namespace coppelia::smt
