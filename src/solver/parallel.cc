#include "solver/parallel.hh"

#include <algorithm>
#include <atomic>
#include <thread>

#include "util/timer.hh"

namespace coppelia::smt::parallel
{

namespace
{

/**
 * The diversification table. Racer 0 is the exact baseline; the rest
 * spread across the axes the portfolio literature identifies as the
 * cheap wins: phase polarity, restart cadence, VSIDS decay, learnt
 * minimization, and reduce-DB aggressiveness.
 */
const RacerConfig kConfigs[] = {
    // name            phase  restart decay  minim  rdbF  rdbM
    {"baseline",       false, 100,    0.95,  true,  0.50, 1000},
    {"pos-phase",      true,  100,    0.95,  true,  0.50, 1000},
    {"rapid-restart",  false, 50,     0.85,  true,  0.33, 500},
    {"slow-restart",   true,  400,    0.99,  false, 1.00, 5000},
    {"agile",          false, 25,     0.80,  true,  0.25, 250},
    {"hoarder",        true,  200,    0.95,  true,  1.50, 10000},
};

std::unique_ptr<sat::Solver>
makeRacer(const sat::Solver &src, const RacerConfig &cfg)
{
    auto s = std::make_unique<sat::Solver>();
    // Configure before cloning: setMinimizeLearnts on an empty solver
    // avoids a watch rebuild, and the phase default applies to every
    // variable newVar creates during the clone.
    s->setMinimizeLearnts(cfg.minimize);
    s->setDefaultPhase(cfg.positivePhase);
    s->setRestartBase(cfg.restartBase);
    s->setVarDecay(cfg.varDecay);
    s->setReduceDbPolicy(cfg.reduceDbFactor, cfg.reduceDbMargin);
    src.cloneInto(*s);
    return s;
}

void
fillRacerResult(RacerResult &r, const sat::Solver &s, const RacerConfig &cfg)
{
    r.config = cfg.name;
    r.conflicts = s.stats().get("conflicts");
    r.decisions = s.stats().get("decisions");
    r.propagations = s.stats().get("propagations");
    r.restarts = s.stats().get("restarts");
    r.exported = s.stats().get("clauses_exported");
    r.imported = s.importedClauses();
}

} // namespace

const RacerConfig &
racerConfig(int i)
{
    const int n = racerConfigCount();
    int k = i % n;
    if (k < 0)
        k += n;
    return kConfigs[k];
}

int
racerConfigCount()
{
    return static_cast<int>(sizeof(kConfigs) / sizeof(kConfigs[0]));
}

RaceOutcome
portfolioRace(const sat::Solver &src, const std::vector<sat::Lit> &assumptions,
              int threads, std::int64_t conflict_budget, bool share,
              std::size_t share_max_lits)
{
    RaceOutcome out;
    const int n = std::max(1, threads);
    out.racers.resize(n);

    std::vector<std::unique_ptr<sat::Solver>> racers;
    racers.reserve(n);
    for (int i = 0; i < n; ++i) {
        auto s = makeRacer(src, racerConfig(i));
        // Assumptions become unit clauses: every racer solves the same
        // strengthened formula, which is what makes sharing learnts
        // between them sound. A root conflict here is already Unsat.
        for (sat::Lit a : assumptions) {
            if (!s->addUnit(a))
                break;
        }
        if (s->inconsistent()) {
            out.result = sat::SatResult::Unsat;
            out.winner = i;
            out.racers[i].result = sat::SatResult::Unsat;
            fillRacerResult(out.racers[i], *s, racerConfig(i));
            out.winnerSolver = std::move(s);
            out.racers.resize(i + 1);
            return out;
        }
        racers.push_back(std::move(s));
    }

    std::atomic<bool> stop{false};
    std::atomic<int> winner{-1};
    if (share) {
        for (int i = 0; i < n; ++i) {
            sat::Solver *self = racers[i].get();
            std::vector<sat::Solver *> peers;
            for (int j = 0; j < n; ++j) {
                if (j != i)
                    peers.push_back(racers[j].get());
            }
            self->setLearntExport(
                [peers](const std::vector<sat::Lit> &lits) {
                    for (sat::Solver *p : peers)
                        p->importClause(lits);
                },
                share_max_lits);
        }
    }

    std::vector<std::thread> pool;
    pool.reserve(n);
    for (int i = 0; i < n; ++i) {
        pool.emplace_back([&, i]() {
            sat::Solver &s = *racers[i];
            s.setInterrupt(&stop);
            Timer t;
            sat::SatResult r = s.solve({}, conflict_budget);
            out.racers[i].wallUs =
                static_cast<std::uint64_t>(t.seconds() * 1e6);
            out.racers[i].result = r;
            if (r != sat::SatResult::Unknown) {
                int expect = -1;
                if (winner.compare_exchange_strong(expect, i))
                    stop.store(true, std::memory_order_release);
            }
        });
    }
    for (auto &t : pool)
        t.join();

    for (int i = 0; i < n; ++i) {
        fillRacerResult(out.racers[i], *racers[i], racerConfig(i));
        out.clausesExported += out.racers[i].exported;
        out.clausesImported += out.racers[i].imported;
    }

    const int w = winner.load();
    if (w >= 0) {
        out.winner = w;
        out.result = out.racers[w].result;
        // Detach the race plumbing before handing the winner out: the
        // peers it pointed at die with this scope.
        racers[w]->setLearntExport({}, 0);
        racers[w]->setInterrupt(nullptr);
        out.winnerSolver = std::move(racers[w]);
    }
    return out;
}

std::vector<sat::Var>
pickSplitVars(const sat::Solver &src, int depth,
              const std::vector<sat::Lit> &exclude)
{
    std::vector<double> score(src.numVars(), 0.0);
    src.forEachLiveClause([&](const std::vector<sat::Lit> &lits) {
        // 1/2^len: a variable in short clauses propagates soonest, the
        // cheap proxy for lookahead's "most simplifying" measure.
        const double w =
            1.0 / static_cast<double>(1ull << std::min<std::size_t>(
                                          lits.size(), 62));
        for (sat::Lit l : lits)
            score[l.var()] += w;
    });
    for (sat::Lit l : exclude)
        score[l.var()] = -1.0;

    std::vector<sat::Var> vars;
    for (sat::Var v = 0; v < src.numVars(); ++v) {
        if (src.value(v) == sat::LBool::Undef && score[v] > 0.0)
            vars.push_back(v);
    }
    std::stable_sort(vars.begin(), vars.end(), [&](sat::Var a, sat::Var b) {
        return score[a] > score[b];
    });
    if (static_cast<int>(vars.size()) > depth)
        vars.resize(depth);
    return vars;
}

CubeOutcome
cubeAndConquer(const sat::Solver &src, const std::vector<sat::Lit> &assumptions,
               int threads, int depth, std::int64_t per_cube_budget)
{
    CubeOutcome out;
    const std::vector<sat::Var> split = pickSplitVars(src, depth, assumptions);
    if (split.empty()) {
        // Nothing left to split on (root-inconsistent database, or
        // propagation already assigned every candidate): degrade to a
        // single cube solved directly, so the merge stays definitive.
        auto s = std::make_unique<sat::Solver>();
        src.cloneInto(*s);
        for (sat::Lit a : assumptions) {
            if (!s->addUnit(a))
                break;
        }
        const sat::SatResult r = s->solve({}, per_cube_budget);
        out.cubes = 1;
        out.result = r;
        if (r == sat::SatResult::Sat) {
            out.satCubes = 1;
            out.winnerSolver = std::move(s);
        } else if (r == sat::SatResult::Unsat) {
            out.unsatCubes = 1;
        } else {
            out.unknownCubes = 1;
        }
        return out;
    }
    const int ncubes = 1 << split.size();
    out.cubes = ncubes;

    const int n = std::max(1, std::min(threads, ncubes));
    std::atomic<bool> stop{false};
    std::atomic<int> next{0};
    std::atomic<int> satWorker{-1};
    std::atomic<int> satCubes{0}, unsatCubes{0}, unknownCubes{0};

    std::vector<std::unique_ptr<sat::Solver>> workers(n);
    std::vector<std::thread> pool;
    pool.reserve(n);
    for (int wi = 0; wi < n; ++wi) {
        pool.emplace_back([&, wi]() {
            // One clone per worker; cube literals ride as solve-time
            // assumptions, so the clone is reused across cubes. The
            // original assumptions become units (shared by every cube).
            auto s = std::make_unique<sat::Solver>();
            src.cloneInto(*s);
            for (sat::Lit a : assumptions) {
                if (!s->addUnit(a))
                    break;
            }
            s->setInterrupt(&stop);
            if (s->inconsistent()) {
                // Every cube of an inconsistent base is Unsat.
                int c;
                while ((c = next.fetch_add(1)) < ncubes)
                    unsatCubes.fetch_add(1);
                workers[wi] = std::move(s);
                return;
            }
            std::vector<sat::Lit> cube(split.size(), sat::Lit::undef());
            int c;
            while ((c = next.fetch_add(1)) < ncubes) {
                if (stop.load(std::memory_order_acquire))
                    break;
                for (std::size_t b = 0; b < split.size(); ++b)
                    cube[b] = sat::Lit(split[b], (c >> b) & 1);
                const sat::SatResult r = s->solve(cube, per_cube_budget);
                if (r == sat::SatResult::Sat) {
                    satCubes.fetch_add(1);
                    satWorker.store(wi);
                    stop.store(true, std::memory_order_release);
                    // Keep the trail: it holds the model.
                    break;
                }
                if (s->inconsistent()) {
                    // Root-level Unsat: the base formula itself is
                    // refuted, every remaining cube is Unsat too.
                    unsatCubes.fetch_add(1);
                    while ((c = next.fetch_add(1)) < ncubes)
                        unsatCubes.fetch_add(1);
                    break;
                }
                if (r == sat::SatResult::Unsat)
                    unsatCubes.fetch_add(1);
                else
                    unknownCubes.fetch_add(1);
            }
            workers[wi] = std::move(s);
        });
    }
    for (auto &t : pool)
        t.join();

    out.satCubes = satCubes.load();
    out.unsatCubes = unsatCubes.load();
    out.unknownCubes = unknownCubes.load();

    const int sw = satWorker.load();
    if (sw >= 0) {
        out.result = sat::SatResult::Sat;
        workers[sw]->setInterrupt(nullptr);
        out.winnerSolver = std::move(workers[sw]);
        return out;
    }
    // Interrupted workers abandon cubes as Unknown only via the budget;
    // with no Sat, the partition is definitive iff every cube refuted.
    if (out.unsatCubes >= out.cubes && out.unknownCubes == 0)
        out.result = sat::SatResult::Unsat;
    return out;
}

} // namespace coppelia::smt::parallel
