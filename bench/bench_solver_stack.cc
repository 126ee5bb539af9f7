/**
 * @file
 * Ablation for the solver's one simplification stage, learnt-clause
 * minimization (on by default, --no-minimize). Runs the backward engine
 * over the full in-scope Table II OR1200 bug matrix twice — the shipped
 * default, and `off` (minimization off, the configuration the BSEE's
 * fallback rerun uses) — and compares cumulative solver time and
 * outcomes. The full matrix matters: the total is dominated by the
 * handful of long searches (b19/b26/b31), and a small-bug subset would
 * measure per-query constant overheads instead of search cost.
 *
 * Expectations this harness checks:
 *   - both configurations agree on the outcome for every bug
 *     (minimization must change cost, never verdicts — this is the exit
 *     code);
 *   - the regression gate pins the absolute default time.
 *
 * Triggers are not required to be byte-identical across the two:
 * minimization changes the learnt clauses and the binary-clause watch
 * order, so a query with many models may surface a different (equally
 * valid, replay-validated) witness. Outcome agreement plus the
 * campaign-level found/replayable parity checks cover correctness; this
 * harness is the cost meter.
 *
 * With `--repeat N` each configuration's solver time is the median of N
 * runs (the engine is deterministic, so repeats only smooth machine
 * noise; the trigger from the first run is used for the checks), and the
 * JSON carries the per-config min/max envelope next to each median.
 *
 * `--solver-threads N` hands stuck queries to the facade's parallel
 * escalation ladder (portfolio race, then cube-and-conquer). The JSON
 * then also reports the b19/b31 hard-row subtotal, the class those
 * escalations exist for; compare against a threads=1 run of the same
 * matrix (see EXPERIMENTS.md).
 */

#include "bench_common.hh"

#include <cinttypes>

#include "trace/trace.hh"
#include "util/json.hh"

using namespace coppelia;
using namespace coppelia::bench;

namespace
{

struct SolverConfig
{
    const char *name;    ///< column label and JSON key suffix
    bool minimize;
};

const SolverConfig kConfigs[] = {
    {"default", smt::SolverOptions{}.minimize}, ///< the shipped default
    {"off", false},                             ///< minimization off
};
constexpr std::size_t kNumConfigs = sizeof(kConfigs) / sizeof(kConfigs[0]);
constexpr std::size_t kDefault = 0;
constexpr std::size_t kOff = 1;

struct RunResult
{
    bse::TriggerResult trigger; ///< from the first repeat
    double seconds = 0.0;       ///< median end-to-end engine time
    double solverSeconds = 0.0; ///< median cumulative solver time
    Spread solverSpread;        ///< min/max of the solver-time repeats
    Spread wallSpread;          ///< min/max of the end-to-end repeats
};

RunResult
runConfig(cpu::BugId bug, const SolverConfig &cfg, const BenchOptions &bench)
{
    RunResult r;
    std::vector<double> solver_samples, total_samples;
    for (int rep = 0; rep < bench.repeat; ++rep) {
        rtl::Design d = cpu::or1k::buildOr1200(cpu::BugConfig::with(bug));
        auto asserts = cpu::or1k::or1200Assertions(d);
        const props::Assertion *a =
            assertionForBug(asserts, cpu::bugName(bug));
        if (!a) {
            std::fprintf(stderr, "no assertion for bug %s\n",
                         cpu::bugName(bug).c_str());
            std::exit(1);
        }

        // Full mode runs the matrix at the bench-standard search bound
        // (4, matching bench_incremental's full mode); smoke keeps CI
        // fast with the shallow bound.
        bse::Options opts;
        opts.bound = bench.smoke ? 3 : 4;
        opts.timeLimitSeconds = 120.0;
        opts.preconditions = or1kPreconditions(d);
        opts.solverMinimize = cfg.minimize;
        // At threads > 1 the facade walks its escalation ladder (budget
        // retries, portfolio race, cube-and-conquer) on stuck queries;
        // at the default of 1 this is bit-for-bit the sequential bench.
        opts.solverThreads = bench.solverThreads;

        Timer timer;
        bse::BackwardEngine engine(d, opts);
        bse::TriggerResult trigger = engine.buildTrigger(*a);
        total_samples.push_back(timer.seconds());
        solver_samples.push_back(
            static_cast<double>(trigger.stats.get("solver_solve_us")) /
            1e6);
        if (rep == 0)
            r.trigger = std::move(trigger);
    }
    r.seconds = median(total_samples);
    r.solverSeconds = median(solver_samples);
    r.solverSpread = spreadOf(solver_samples);
    r.wallSpread = spreadOf(total_samples);
    return r;
}

std::string
fmtSecs(double s)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3fs", s);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions bench = parseBenchArgs(argc, argv);
    if (!bench.tracePath.empty())
        trace::setEnabled(true);

    // Full mode: every in-scope Table II OR1200 bug, the same matrix the
    // campaign runs. Smoke mode: the fastest-converging subset.
    std::vector<cpu::BugId> rows;
    if (bench.smoke) {
        rows = {cpu::BugId::b03, cpu::BugId::b05, cpu::BugId::b09};
    } else {
        rows = cpu::bugsFor(cpu::Processor::OR1200, false);
    }

    std::printf("Learnt-clause minimization ablation (Table II "
                "single-instruction OR1200 bugs)%s\n",
                bench.smoke ? " [smoke]" : "");
    std::printf("columns = cumulative solver time per configuration "
                "(median of %d run%s, solver threads %d)\n\n",
                bench.repeat, bench.repeat == 1 ? "" : "s",
                bench.solverThreads);
    const std::vector<int> widths{5, 10, 10, 9};
    printRow({"No.", "default", "off", "same-out"}, widths);
    printRule(widths);

    double totals[kNumConfigs] = {};
    double totals_min[kNumConfigs] = {};
    double totals_max[kNumConfigs] = {};
    double wall_totals[kNumConfigs] = {};
    // The long-search rows (the b19/b31 class the parallel escalations
    // target) get their own subtotal so a --solver-threads run can report
    // its effect where it matters, not diluted by the sub-second bugs.
    double hard_totals[kNumConfigs] = {};
    int hard_bugs = 0;
    bool same_outcomes = true;
    for (cpu::BugId bug : rows) {
        const bool hard =
            bug == cpu::BugId::b19 || bug == cpu::BugId::b31;
        hard_bugs += hard ? 1 : 0;
        RunResult results[kNumConfigs];
        for (std::size_t c = 0; c < kNumConfigs; ++c) {
            results[c] = runConfig(bug, kConfigs[c], bench);
            totals[c] += results[c].solverSeconds;
            totals_min[c] += results[c].solverSpread.min;
            totals_max[c] += results[c].solverSpread.max;
            wall_totals[c] += results[c].seconds;
            if (hard)
                hard_totals[c] += results[c].solverSeconds;
        }
        bool agree = true;
        for (std::size_t c = 1; c < kNumConfigs; ++c)
            agree = agree && results[c].trigger.outcome ==
                                 results[0].trigger.outcome;
        same_outcomes = same_outcomes && agree;
        std::vector<std::string> cells{cpu::bugName(bug)};
        for (std::size_t c = 0; c < kNumConfigs; ++c)
            cells.push_back(fmtSecs(results[c].solverSeconds));
        cells.push_back(yn(agree));
        printRow(cells, widths);
    }
    printRule(widths);
    std::vector<std::string> cells{"Total"};
    for (std::size_t c = 0; c < kNumConfigs; ++c)
        cells.push_back(fmtSecs(totals[c]));
    cells.push_back(yn(same_outcomes));
    printRow(cells, widths);

    std::printf("\nchecks: outcomes agree across both configurations: %s "
                "(the absolute default time is pinned by the regression "
                "gate)\n",
                yn(same_outcomes).c_str());
    std::printf("default solver total %.3fs (repeat spread %.3f..%.3fs)\n",
                totals[kDefault], totals_min[kDefault],
                totals_max[kDefault]);
    if (hard_bugs > 0)
        std::printf("hard rows (b19/b31) default solver total %.3fs, "
                    "minimization off %.3fs\n",
                    hard_totals[kDefault], hard_totals[kOff]);

    if (!bench.jsonPath.empty()) {
        // The shape scripts/check_bench_regression.py gates on.
        json::Value v = json::Value::object();
        v.set("bench", json::Value::string("bench_solver_stack"));
        v.set("smoke", json::Value::boolean(bench.smoke));
        v.set("repeat",
              json::Value::number(static_cast<double>(bench.repeat)));
        v.set("bugs",
              json::Value::number(static_cast<double>(rows.size())));
        v.set("solver_threads",
              json::Value::number(
                  static_cast<double>(bench.solverThreads)));
        for (std::size_t c = 0; c < kNumConfigs; ++c) {
            v.set(std::string("total_solver_") + kConfigs[c].name +
                      "_seconds",
                  json::Value::number(totals[c]));
            // The min/max envelope across the --repeat samples, summed
            // per bug: how much of the median could be machine noise.
            v.set(std::string("total_solver_") + kConfigs[c].name +
                      "_min_seconds",
                  json::Value::number(totals_min[c]));
            v.set(std::string("total_solver_") + kConfigs[c].name +
                      "_max_seconds",
                  json::Value::number(totals_max[c]));
            v.set(std::string("total_") + kConfigs[c].name + "_seconds",
                  json::Value::number(wall_totals[c]));
        }
        v.set("hard_bugs",
              json::Value::number(static_cast<double>(hard_bugs)));
        if (hard_bugs > 0) {
            // b19/b31 subtotal: the class the EXPERIMENTS.md parallel
            // recipe compares across --solver-threads settings.
            v.set("hard_solver_default_seconds",
                  json::Value::number(hard_totals[kDefault]));
            v.set("hard_solver_off_seconds",
                  json::Value::number(hard_totals[kOff]));
        }
        v.set("same_outcomes", json::Value::boolean(same_outcomes));
        std::ofstream out = openOutputOrDie(argv[0], bench.jsonPath);
        out << v.dump() << "\n";
        std::printf("wrote %s\n", bench.jsonPath.c_str());
    }
    if (!bench.tracePath.empty()) {
        trace::setEnabled(false);
        if (!trace::writeChromeTraceFile(bench.tracePath)) {
            std::fprintf(stderr, "%s: cannot write trace '%s'\n", argv[0],
                         bench.tracePath.c_str());
            return 1;
        }
        std::printf("wrote %s (%llu events)\n", bench.tracePath.c_str(),
                    static_cast<unsigned long long>(trace::eventCount()));
    }

    // Fail loudly if the ablation changes a verdict. Cost is gated by
    // scripts/check_bench_regression.py against the committed baseline,
    // not here: a cost gate keyed to a ratio of two same-machine runs
    // would flake on machine noise without catching real regressions.
    return same_outcomes ? 0 : 1;
}
