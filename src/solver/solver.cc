#include "solver/solver.hh"

#include <algorithm>

#include "metrics/metrics.hh"
#include "solver/bitblast.hh"
#include "solver/parallel.hh"
#include "solver/querylog.hh"
#include "solver/rewrite.hh"
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
        "solver_queries", "SMT facade queries (cache hits included)");
    metrics::Counter *satCalls = metrics::counter(
        "solver_sat_calls", "SAT solves actually dispatched");
    metrics::Counter *incrementalQueries = metrics::counter(
        "solver_incremental_queries",
        "queries answered by the persistent incremental backend");
    metrics::Counter *cacheHits = metrics::counter(
        "solver_cache_hits", "query-cache hits (no SAT call)");
    metrics::Counter *budgetExhausted = metrics::counter(
        "solver_budget_exhausted",
        "SAT solves that returned Unknown on conflict budget");
    metrics::Histogram *solveUs = metrics::histogram(
        "smt.solve_us",
        {100, 1000, 10000, 100000, 1000000, 10000000},
        "latency of one SAT dispatch in microseconds (the region the "
        "smt.solve trace span brackets)");
    metrics::Counter *rewriteHits = metrics::counter(
        "solver_rewrite_hits",
        "word-level rewrite rules applied before bit-blasting");
    metrics::Counter *preprocessRemoved = metrics::counter(
        "solver_preprocess_clauses_removed",
        "clauses removed by CNF pre/inprocessing");
    metrics::Counter *learntLitsSaved = metrics::counter(
        "solver_learnt_lits_saved",
        "literals removed from learnt clauses by minimization");
    metrics::Counter *escalations = metrics::counter(
        "solver_escalations",
        "queries escalated past the base conflict budget");
    metrics::Counter *portfolioRaces = metrics::counter(
        "solver_portfolio_races",
        "portfolio races dispatched on escalated queries");
    metrics::Counter *portfolioWins = metrics::counter(
        "solver_portfolio_wins",
        "portfolio races that produced a definitive answer");
    metrics::Counter *sharedClauses = metrics::counter(
        "solver_shared_clauses",
        "learnt clauses imported between portfolio racers");
    metrics::Counter *cubeSplits = metrics::counter(
        "solver_cube_splits",
        "cubes fanned out by cube-and-conquer escalations");
};

LiveCounters &
live()
{
    static LiveCounters counters;
    return counters;
}

/** Base-attempt conflict budget substituted for "unlimited" at
 *  threads > 1: low enough that the hard-search tail (the b19/b31
 *  class) escalates into the parallel stages, high enough that the
 *  cheap majority of queries never pays any parallel overhead. */
constexpr std::int64_t kAutoConflictBudget = 20000;

/** Adaptive rewrite gating: close a payoff window every this many
 *  rewritten queries and turn the stage off when it yielded fewer than
 *  one rule hit per 16 queries. */
constexpr std::uint64_t kAdaptiveWindow = 128;
/** While rewriting is adaptively off, probe it again on every 256th
 *  query so a workload shift can turn it back on. */
constexpr std::uint64_t kAdaptiveProbeMask = 0xFF;

} // namespace

Solver::Solver(TermManager &tm, SolverOptions opts) : tm_(tm), opts_(opts) {}

Solver::~Solver() = default;

std::vector<TermRef>
Solver::canonicalKey(const std::vector<TermRef> &assertions)
{
    std::vector<TermRef> key = assertions;
    std::sort(key.begin(), key.end());
    key.erase(std::unique(key.begin(), key.end()), key.end());
    return key;
}

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
Solver::cacheInsert(const std::vector<TermRef> &key, CacheEntry entry)
{
    auto [it, inserted] = cache_.insert_or_assign(key, std::move(entry));
    if (!inserted)
        return;
    cacheOrder_.push_back(it);
    while (opts_.cacheMaxEntries && cache_.size() > opts_.cacheMaxEntries) {
        stats_.inc("cache_evictions");
        cache_.erase(cacheOrder_.front());
        cacheOrder_.pop_front();
    }
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

    // Stage 1 of the simplification stack: word-level rewriting. The
    // rewritten assertions feed everything downstream — the constant
    // short circuit, the query cache (more collisions on the canonical
    // forms), model reuse, and bit-blasting. Any variable a rewrite
    // eliminates entirely is a don't-care; readModel leaves it at zero,
    // which matches the SAT core's all-False phase bias.
    std::vector<TermRef> rewritten;
    const std::vector<TermRef> *asserts = &assertions;
    bool rewrite_now = opts_.rewrite;
    if (rewrite_now && adaptiveActive() && adaptiveRewriteOff_ &&
        (stats_.get("queries") & kAdaptiveProbeMask) != 0) {
        // Adaptive policy: the last payoff window said rewriting does
        // not pay on this query stream; skip it except for the
        // periodic probe that lets it come back.
        stats_.inc("adaptive_rewrite_skips");
        rewrite_now = false;
    }
    if (rewrite_now) {
        if (!rewriter_)
            rewriter_ = std::make_unique<Rewriter>(tm_);
        trace::Span span("smt.rewrite", "solver");
        Timer rtimer;
        const std::uint64_t hits0 = rewriter_->ruleHits();
        rewritten.reserve(assertions.size());
        for (TermRef a : assertions)
            rewritten.push_back(rewriter_->rewrite(a));
        const std::uint64_t hits = rewriter_->ruleHits() - hits0;
        stats_.inc("rewrite_hits", hits);
        stats_.inc("rewrite_us",
                   static_cast<std::uint64_t>(rtimer.seconds() * 1e6));
        live().rewriteHits->inc(hits);
        // Attributed to the SAT dispatch this check() leads to (if any);
        // solveCore consumes it into the query-log record.
        pendingRewriteHits_ = hits;
        asserts = &rewritten;
        if (adaptiveActive()) {
            adaptiveWindowQueries_ += 1;
            adaptiveWindowHits_ += hits;
            if (adaptiveWindowQueries_ >= kAdaptiveWindow) {
                const bool off =
                    adaptiveWindowHits_ < adaptiveWindowQueries_ / 16;
                if (off != adaptiveRewriteOff_)
                    stats_.inc("adaptive_rewrite_flips");
                adaptiveRewriteOff_ = off;
                adaptiveWindowQueries_ = 0;
                adaptiveWindowHits_ = 0;
            }
        }
    }

    // Constant-level short circuit: the simplifier folds trivially false
    // assertions to literal 0.
    for (TermRef a : *asserts) {
        std::uint64_t k;
        if (tm_.isConst(a, &k) && k == 0) {
            stats_.inc("trivially_unsat");
            return Result::Unsat;
        }
    }

    std::vector<TermRef> key;
    if (opts_.useCache) {
        key = canonicalKey(*asserts);
        auto it = cache_.find(key);
        if (it != cache_.end()) {
            stats_.inc("cache_hits");
            live().cacheHits->inc();
            if (it->second.result == Result::Sat && model)
                *model = it->second.model;
            return it->second.result;
        }
        // Counterexample reuse: a model from an earlier query may already
        // satisfy this one, skipping the SAT call entirely.
        for (ReuseSlot &slot : recentModels_) {
            if (modelSatisfies(*asserts, slot)) {
                stats_.inc("model_reuse_hits");
                if (model)
                    *model = slot.model;
                cacheInsert(key, CacheEntry{Result::Sat, slot.model});
                return Result::Sat;
            }
        }
    }

    Model local;
    Result r = solveCore(*asserts, &local);
    if (r == Result::Sat && model)
        *model = local;

    if (opts_.useCache && r != Result::Unknown) {
        cacheInsert(key, CacheEntry{r, r == Result::Sat ? local : Model{}});
        if (r == Result::Sat)
            rememberModel(local);
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

bool
Solver::adaptiveActive() const
{
    switch (opts_.adaptiveSimplify) {
      case AdaptiveSimplify::On: return true;
      case AdaptiveSimplify::Off: return false;
      case AdaptiveSimplify::Auto: return opts_.threads > 1;
    }
    return false;
}

std::int64_t
Solver::effectiveBudget() const
{
    if (opts_.conflictBudget > 0 || opts_.threads <= 1)
        return opts_.conflictBudget;
    // Parallel dispatch policy: bound an unlimited base attempt so the
    // hard-query tail comes back Unknown and escalates into the
    // portfolio/cube stages instead of monopolizing one core.
    return kAutoConflictBudget;
}

Result
Solver::escalate(const std::vector<TermRef> &assertions, Model *model)
{
    stats_.inc("escalations");
    live().escalations->inc();
    // Stage 1 — the geometric budget ladder: rung k retries sequentially
    // at 4^k x the configured budget. The default single rung with
    // threads = 1 is exactly the historical one-shot 4x retry, so the
    // sequential dispatch stream stays bit-for-bit seed-identical.
    if (opts_.conflictBudget > 0) {
        std::int64_t budget = opts_.conflictBudget;
        for (int rung = 1; rung <= opts_.budgetLadderRungs; ++rung) {
            budget *= 4;
            stats_.inc("escalation_rungs");
            querylog::context().retry = static_cast<std::uint32_t>(rung);
            Result r = checkWithBudget(assertions, model, budget);
            querylog::context().retry = 0;
            if (r != Result::Unknown) {
                stats_.inc("escalation_ladder_recovered");
                return r;
            }
        }
    }
    if (opts_.threads <= 1)
        return Result::Unknown;
    return solveParallel(assertions, model);
}

Result
Solver::solveParallel(const std::vector<TermRef> &assertions, Model *model)
{
    // Mirrors check()'s wrapper: rewrite for canonical forms (memoized,
    // near-free after the base attempt), then cache the verdict. No
    // cache lookup — the base attempt already missed.
    stats_.inc("queries");
    live().queries->inc();
    std::vector<TermRef> rewritten;
    const std::vector<TermRef> *asserts = &assertions;
    if (opts_.rewrite && !(adaptiveActive() && adaptiveRewriteOff_)) {
        if (!rewriter_)
            rewriter_ = std::make_unique<Rewriter>(tm_);
        rewritten.reserve(assertions.size());
        for (TermRef a : assertions)
            rewritten.push_back(rewriter_->rewrite(a));
        asserts = &rewritten;
    }
    std::vector<TermRef> key;
    if (opts_.useCache)
        key = canonicalKey(*asserts);

    Model local;
    Result r = solveParallelCore(*asserts, &local);
    if (r == Result::Sat && model)
        *model = local;
    if (opts_.useCache && r != Result::Unknown) {
        cacheInsert(key, CacheEntry{r, r == Result::Sat ? local : Model{}});
        if (r == Result::Sat)
            rememberModel(local);
    }
    return r;
}

Result
Solver::solveParallelCore(const std::vector<TermRef> &assertions,
                          Model *model)
{
    stats_.inc("sat_calls");
    live().satCalls->inc();
    metrics::heartbeat("smt.solve", stats_.get("sat_calls"));

    // Stage budgets scale off the ladder's top rung. An unlimited
    // configured budget keeps the final cube stage unlimited, so the
    // escalation chain preserves the sequential completeness contract
    // (every verdict the unbounded sequential solver would reach, the
    // parallel chain reaches too — result-not-witness reproducibility).
    const bool unlimited = opts_.conflictBudget <= 0;
    std::int64_t top =
        unlimited ? kAutoConflictBudget : opts_.conflictBudget;
    for (int k = 0; k < opts_.budgetLadderRungs; ++k)
        top *= 4;
    const std::int64_t race_budget = top * 4;
    const std::int64_t cube_budget =
        opts_.cubeBudget > 0 ? opts_.cubeBudget
                             : (unlimited ? -1 : race_budget * 4);

    // The span/timer bracket the whole parallel dispatch in wall-clock
    // (not summed racer CPU), keeping the trace fold, solver_solve_us,
    // and the smt.solve_us histogram in agreement.
    trace::Span span("smt.solve", "solver");
    Timer timer;

    // Build the (source solver, assumptions, blaster) triple the stages
    // clone from. The incremental backend is left at the root and is
    // never solved on directly: escalations cannot perturb the
    // sequential query stream's state.
    sat::Solver *src = nullptr;
    const BitBlaster *blaster = nullptr;
    std::vector<sat::Lit> assumptions;
    std::unique_ptr<sat::Solver> freshSat;
    std::unique_ptr<BitBlaster> freshBlaster;
    bool inconsistent = false;
    if (opts_.incremental) {
        if (!incSat_) {
            incSat_ = std::make_unique<sat::Solver>();
            incSat_->setMinimizeLearnts(opts_.minimize);
            incBlaster_ = std::make_unique<BitBlaster>(tm_, *incSat_);
            preprocessedClauses_ = 0;
        }
        incSat_->cancelToRoot();
        assumptions.reserve(assertions.size());
        for (TermRef a : assertions) {
            if (tm_.widthOf(a) != 1)
                fatal("solver assertion is not boolean");
            assumptions.push_back(incBlaster_->blast(a)[0]);
        }
        inconsistent = incSat_->inconsistent();
        src = incSat_.get();
        blaster = incBlaster_.get();
    } else {
        freshSat = std::make_unique<sat::Solver>();
        freshSat->setMinimizeLearnts(opts_.minimize);
        freshBlaster = std::make_unique<BitBlaster>(tm_, *freshSat);
        for (TermRef a : assertions) {
            if (tm_.widthOf(a) != 1)
                fatal("solver assertion is not boolean");
            freshBlaster->assertTrue(a);
        }
        inconsistent = freshSat->inconsistent();
        src = freshSat.get();
        blaster = freshBlaster.get();
    }

    Result out = inconsistent ? Result::Unsat : Result::Unknown;
    std::uint8_t mode = 1;
    std::int16_t winner = -1;
    std::uint16_t fanout = 0;
    std::uint64_t work_conflicts = 0;

    if (out == Result::Unknown && opts_.portfolio) {
        querylog::context().retry =
            static_cast<std::uint32_t>(opts_.budgetLadderRungs + 1);
        parallel::RaceOutcome race = parallel::portfolioRace(
            *src, assumptions, opts_.threads, race_budget);
        stats_.inc("portfolio_races");
        live().portfolioRaces->inc();
        stats_.inc("portfolio_clauses_exported", race.clausesExported);
        stats_.inc("portfolio_clauses_imported", race.clausesImported);
        live().sharedClauses->inc(race.clausesImported);
        if constexpr (querylog::kEnabled) {
            // Per-racer records, emitted from the dispatching thread (a
            // racer thread's own ring would be stranded unread).
            for (std::size_t i = 0; i < race.racers.size(); ++i) {
                const parallel::RacerResult &rr = race.racers[i];
                querylog::Record rec;
                rec.assumptions =
                    static_cast<std::uint32_t>(assertions.size());
                rec.conflicts = rr.conflicts;
                rec.decisions = rr.decisions;
                rec.propagations = rr.propagations;
                rec.restarts = rr.restarts;
                rec.wallUs = rr.wallUs;
                rec.result = static_cast<int>(
                    rr.result == sat::SatResult::Sat     ? Result::Sat
                    : rr.result == sat::SatResult::Unsat ? Result::Unsat
                                                         : Result::Unknown);
                rec.incremental = opts_.incremental;
                rec.mode = 1;
                rec.racer = static_cast<std::int16_t>(i);
                rec.winner = static_cast<std::int16_t>(race.winner);
                querylog::record(rec);
            }
        }
        for (const parallel::RacerResult &rr : race.racers)
            work_conflicts += rr.conflicts;
        if (race.winner >= 0) {
            stats_.inc("portfolio_wins");
            live().portfolioWins->inc();
            stats_.inc(std::string("portfolio_win_") +
                       race.racers[race.winner].config);
            winner = static_cast<std::int16_t>(race.winner);
        }
        if (race.result == sat::SatResult::Sat) {
            if (model)
                readModel(*blaster, *race.winnerSolver, assertions, model);
            out = Result::Sat;
        } else if (race.result == sat::SatResult::Unsat) {
            out = Result::Unsat;
        }
    }

    if (out == Result::Unknown) {
        mode = 2;
        querylog::context().retry =
            static_cast<std::uint32_t>(opts_.budgetLadderRungs + 2);
        int depth = 0;
        while ((1 << depth) < 2 * opts_.threads && depth < 4)
            ++depth;
        parallel::CubeOutcome cc = parallel::cubeAndConquer(
            *src, assumptions, opts_.threads, depth, cube_budget);
        stats_.inc("cube_escalations");
        stats_.inc("cube_splits", cc.cubes);
        stats_.inc("cube_sat_cubes", cc.satCubes);
        stats_.inc("cube_unsat_cubes", cc.unsatCubes);
        stats_.inc("cube_unknown_cubes", cc.unknownCubes);
        live().cubeSplits->inc(cc.cubes);
        fanout = static_cast<std::uint16_t>(cc.cubes);
        if (cc.result == sat::SatResult::Sat) {
            if (model)
                readModel(*blaster, *cc.winnerSolver, assertions, model);
            out = Result::Sat;
        } else if (cc.result == sat::SatResult::Unsat) {
            out = Result::Unsat;
        } else if (cc.cubes == 0 && cube_budget < 0) {
            // Degenerate split (nothing left to split on) under an
            // unlimited contract: one unbounded solve on a clone keeps
            // the chain definitive without touching the source solver.
            sat::Solver seq;
            src->cloneInto(seq);
            for (sat::Lit a : assumptions) {
                if (!seq.addUnit(a))
                    break;
            }
            const sat::SatResult sr =
                seq.inconsistent() ? sat::SatResult::Unsat : seq.solve();
            if (sr == sat::SatResult::Sat) {
                if (model)
                    readModel(*blaster, seq, assertions, model);
                out = Result::Sat;
            } else if (sr == sat::SatResult::Unsat) {
                out = Result::Unsat;
            }
        }
    }

    const auto us = static_cast<std::uint64_t>(timer.seconds() * 1e6);
    span.close();
    stats_.inc("solve_us", us);
    live().solveUs->observe(us);
    if (out == Result::Unknown) {
        stats_.inc("budget_exhausted");
        live().budgetExhausted->inc();
    }
    if constexpr (querylog::kEnabled) {
        querylog::Record rec;
        rec.assumptions = static_cast<std::uint32_t>(assertions.size());
        rec.conflicts = work_conflicts;
        rec.wallUs = us;
        rec.result = static_cast<int>(out);
        rec.incremental = opts_.incremental;
        rec.mode = mode;
        rec.winner = winner;
        rec.cubes = fanout;
        querylog::record(rec);
    }
    querylog::context().retry = 0;
    pendingRewriteHits_ = 0;
    return out;
}

Result
Solver::solveCore(const std::vector<TermRef> &assertions, Model *model)
{
    stats_.inc("sat_calls");
    live().satCalls->inc();
    metrics::heartbeat("smt.solve", stats_.get("sat_calls"));
    // Per-query deltas for the forensics record: the backends accumulate
    // their SAT-core deltas into stats_, so the difference across the
    // dispatch is exactly this query's work.
    std::uint64_t c0 = 0, d0 = 0, p0 = 0, r0 = 0, l0 = 0, pp0 = 0;
    if constexpr (querylog::kEnabled) {
        c0 = stats_.get("sat_conflicts");
        d0 = stats_.get("sat_decisions");
        p0 = stats_.get("sat_propagations");
        r0 = stats_.get("sat_restarts");
        l0 = stats_.get("learnt_lits_saved");
        pp0 = stats_.get("preprocess_clauses_removed");
    }
    // The span brackets exactly the region the solve_us counter times, so
    // a folded trace's smt.solve total, the solver_solve_us telemetry,
    // and the smt.solve_us registry histogram agree (the acceptance
    // cross-check between the three systems).
    trace::Span span("smt.solve", "solver");
    Timer timer;
    Result r = opts_.incremental ? solveIncremental(assertions, model)
                                 : solveFresh(assertions, model);
    const auto us = static_cast<std::uint64_t>(timer.seconds() * 1e6);
    // Close with the timer so the span excludes the stats/querylog
    // bookkeeping below: on a chatty search the per-query bookkeeping
    // would otherwise accumulate into a systematic fold-vs-counter gap.
    span.close();
    stats_.inc("solve_us", us);
    live().solveUs->observe(us);
    if constexpr (querylog::kEnabled) {
        querylog::Record rec;
        rec.assumptions = static_cast<std::uint32_t>(assertions.size());
        rec.conflicts = stats_.get("sat_conflicts") - c0;
        rec.decisions = stats_.get("sat_decisions") - d0;
        rec.propagations = stats_.get("sat_propagations") - p0;
        rec.restarts = stats_.get("sat_restarts") - r0;
        rec.learntLitsSaved = stats_.get("learnt_lits_saved") - l0;
        rec.preprocessRemoved =
            stats_.get("preprocess_clauses_removed") - pp0;
        rec.rewriteHits = pendingRewriteHits_;
        rec.wallUs = us;
        rec.result = static_cast<int>(r);
        rec.incremental = opts_.incremental;
        querylog::record(rec);
    }
    pendingRewriteHits_ = 0;
    return r;
}

void
Solver::readModel(const BitBlaster &blaster, const sat::Solver &sat,
                  const std::vector<TermRef> &assertions, Model *model) const
{
    // Read back every theory variable that occurs in the assertions.
    std::vector<int> vars;
    for (TermRef a : assertions)
        tm_.collectVars(a, vars);
    std::sort(vars.begin(), vars.end());
    vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
    for (int v : vars) {
        const std::vector<sat::Lit> *lits = blaster.varLits(v);
        std::uint64_t bits = 0;
        if (lits) {
            for (std::size_t i = 0; i < lits->size(); ++i) {
                if (sat.value((*lits)[i]) == sat::LBool::True)
                    bits |= 1ull << i;
            }
        }
        model->set(v, bits);
    }
}

Result
Solver::solveFresh(const std::vector<TermRef> &assertions, Model *model)
{
    sat::Solver sat;
    sat.setMinimizeLearnts(opts_.minimize);
    BitBlaster blaster(tm_, sat);

    for (TermRef a : assertions) {
        if (tm_.widthOf(a) != 1)
            fatal("solver assertion is not boolean");
        blaster.assertTrue(a);
    }
    if (sat.inconsistent())
        return Result::Unsat;

    // No CNF preprocessing here: a full SatELite pass per throwaway
    // instance costs more than it saves (measured ~4.6x total fresh-mode
    // solver time on the smoke bugs). Preprocessing amortizes only over
    // the persistent incremental database, where one pass serves the
    // thousands of queries that follow (see solveIncremental).

    sat::SatResult sr = sat.solve({}, effectiveBudget());
    stats_.inc("sat_conflicts", sat.stats().get("conflicts"));
    stats_.inc("sat_decisions", sat.stats().get("decisions"));
    stats_.inc("sat_propagations", sat.stats().get("propagations"));
    stats_.inc("sat_restarts", sat.stats().get("restarts"));
    stats_.inc("learnt_lits_saved", sat.stats().get("learnt_lits_saved"));
    live().learntLitsSaved->inc(sat.stats().get("learnt_lits_saved"));

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
Solver::solveIncremental(const std::vector<TermRef> &assertions, Model *model)
{
    if (!incSat_) {
        incSat_ = std::make_unique<sat::Solver>();
        incSat_->setMinimizeLearnts(opts_.minimize);
        incBlaster_ = std::make_unique<BitBlaster>(tm_, *incSat_);
        preprocessedClauses_ = 0;
    }
    stats_.inc("incremental_queries");
    live().incrementalQueries->inc();
    // Learnt clauses present before this query were derived while solving
    // earlier ones; they are implied by the (purely definitional) Tseitin
    // clauses, so carrying them over is sound and prunes this query too.
    stats_.inc("learnts_retained", incSat_->numLearnts());

    const std::uint64_t hits0 = incBlaster_->cacheHits();
    const std::uint64_t lowered0 = incBlaster_->termsLowered();

    // The previous query's model (a full trail above level 0) must be
    // undone before this query's Tseitin clauses can be installed.
    incSat_->cancelToRoot();
    // Canonical decision state per query: retained clauses keep their
    // pruning power, but model selection must not be steered by earlier
    // queries' saved phases — phase saving reproduces the previous
    // witness, and the BSE engine's stitching heuristics depend on the
    // fresh solver's all-False bias (model values near reset).
    incSat_->resetDecisionState();

    // Each assertion becomes an assumption on its indicator literal rather
    // than a unit clause: the frame it opens closes automatically when the
    // next query assumes a different set, and nothing asserted for one
    // candidate can leak into another.
    std::vector<sat::Lit> assumptions;
    assumptions.reserve(assertions.size());
    for (TermRef a : assertions) {
        if (tm_.widthOf(a) != 1)
            fatal("solver assertion is not boolean");
        assumptions.push_back(incBlaster_->blast(a)[0]);
    }
    stats_.inc("blast_cache_hits", incBlaster_->cacheHits() - hits0);
    stats_.inc("blast_terms_lowered",
               incBlaster_->termsLowered() - lowered0);

    if (incSat_->inconsistent())
        return Result::Unsat;

    // Stage 2: root-level pre/inprocessing. The first run waits for a
    // meaningful clause count; reruns trigger once the database has grown
    // enough (new blasted frames and retained learnts) to re-pay the
    // simplification cost — 25% growth measured best on the Table II
    // matrix (both rarer full runs and a cheap strip-only tier between
    // them benchmarked slower end to end). Assumption literals and every
    // term-boundary variable are frozen by the blaster, so elimination
    // only ever touches gate-internal Tseitin temporaries.
    std::size_t growth = std::max<std::size_t>(1000, preprocessedClauses_ / 4);
    if (adaptiveActive()) {
        // Adaptive policy: unproductive inprocessing passes back the
        // trigger off geometrically (formula size is the payoff feature;
        // see the backoff update below).
        growth *= preprocessBackoff_;
    }
    if (opts_.preprocess &&
        incSat_->numClauses() > preprocessedClauses_ + growth) {
        trace::Span pspan("sat.preprocess", "solver");
        Timer ptimer;
        const std::uint64_t r0 =
            incSat_->stats().get("preprocess_clauses_removed");
        const std::uint64_t v0 =
            incSat_->stats().get("preprocess_vars_eliminated");
        const bool consistent = incSat_->preprocess();
        stats_.inc("preprocess_us",
                   static_cast<std::uint64_t>(ptimer.seconds() * 1e6));
        preprocessedClauses_ = incSat_->numClauses();
        const std::uint64_t removed =
            incSat_->stats().get("preprocess_clauses_removed") - r0;
        stats_.inc("preprocess_clauses_removed", removed);
        stats_.inc("preprocess_vars_eliminated",
                   incSat_->stats().get("preprocess_vars_eliminated") - v0);
        live().preprocessRemoved->inc(removed);
        if (adaptiveActive()) {
            if (removed * 100 < incSat_->numClauses()) {
                preprocessBackoff_ =
                    std::min<std::size_t>(preprocessBackoff_ * 2, 16);
                stats_.inc("adaptive_preprocess_backoffs");
            } else {
                preprocessBackoff_ = 1;
            }
        }
        if (!consistent)
            return Result::Unsat;
    }

    const std::uint64_t c0 = incSat_->stats().get("conflicts");
    const std::uint64_t d0 = incSat_->stats().get("decisions");
    const std::uint64_t p0 = incSat_->stats().get("propagations");
    const std::uint64_t rs0 = incSat_->stats().get("restarts");
    const std::uint64_t l0 = incSat_->stats().get("learnt_lits_saved");
    sat::SatResult sr = incSat_->solve(assumptions, effectiveBudget());
    stats_.inc("sat_conflicts", incSat_->stats().get("conflicts") - c0);
    stats_.inc("sat_decisions", incSat_->stats().get("decisions") - d0);
    stats_.inc("sat_propagations",
               incSat_->stats().get("propagations") - p0);
    stats_.inc("sat_restarts", incSat_->stats().get("restarts") - rs0);
    const std::uint64_t saved =
        incSat_->stats().get("learnt_lits_saved") - l0;
    stats_.inc("learnt_lits_saved", saved);
    live().learntLitsSaved->inc(saved);

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

bool
Solver::isSat(const std::vector<TermRef> &assertions)
{
    Result r = check(assertions, nullptr);
    if (r == Result::Unknown)
        fatal("solver budget exhausted on a must-decide query");
    return r == Result::Sat;
}

void
Solver::clearCache()
{
    cache_.clear();
    cacheOrder_.clear();
    recentModels_.clear();
    recentNext_ = 0;
}

void
Solver::resetIncremental()
{
    incBlaster_.reset();
    incSat_.reset();
}

} // namespace coppelia::smt
