/**
 * @file
 * Regenerates Table III: the cumulative effect of the optimizations on
 * forward one-clock-cycle symbolic execution from the reset state, over
 * the paper's six single-instruction bugs (b05, b09, b10, b13, b24, b27).
 *
 * Configurations are cumulative like the paper's columns:
 *   Original  — random search, no compiler optimizations, no CoI
 *   +Hybrid   — the BFS/DFS interleaving heuristic (§II-E2)
 *   +CompOpt  — the RTL optimization pipeline (the Verilator -O3 analog)
 *   +CoI      — cone-of-influence restriction of the explored state
 *
 * Absolute times are not comparable to the paper's (their substrate is
 * KLEE on a Xeon server; ours is a from-scratch engine); the shape to
 * reproduce is the relative speedup of each added optimization.
 */

#include "bench_common.hh"

#include "coi/coi.hh"
#include "rtl/passes/passes.hh"
#include <unordered_set>

#include "solver/solver.hh"
#include "sym/binding.hh"
#include "sym/executor.hh"

using namespace coppelia;
using namespace coppelia::bench;

namespace
{

struct Config
{
    const char *name;
    sym::SearchMode search;
    bool compilerOpts;
    bool coi;
};

/**
 * One-cycle violation search with symbolic internal state (the backward
 * engine's first iteration, which dominates the paper's Table III
 * timings); returns seconds to the first violating leaf (or the elapsed
 * time at the cap when nothing was found).
 */
struct SearchWork
{
    double secs;
    std::uint64_t leaves;
    std::uint64_t decisions;
};

SearchWork
forwardSearch(const rtl::Design &design, const props::Assertion &assertion,
              const Config &cfg)
{
    Timer timer;
    smt::TermManager tm;
    smt::Solver solver(tm);

    sym::ExplorerOptions eopts;
    eopts.search = cfg.search;
    eopts.timeLimitSeconds = 60;
    sym::CycleExplorer explorer(design, tm, eopts);

    // Symbolic roots: the assertion's cone registers (with CoI) or every
    // register (without) — §II-D3.
    std::vector<rtl::SignalId> roots;
    if (cfg.coi) {
        coi::CoiResult cone = coi::analyze(design, assertion.vars);
        roots.assign(cone.coneRegisters.begin(),
                     cone.coneRegisters.end());
    } else {
        for (rtl::SignalId sig = 0; sig < design.numSignals(); ++sig) {
            if (design.signal(sig).kind == rtl::SignalKind::Register)
                roots.push_back(sig);
        }
    }
    std::sort(roots.begin(), roots.end());
    const std::unordered_set<rtl::SignalId> sym_set(roots.begin(),
                                                    roots.end());
    sym::BoundState bs = sym::bindCycle(design, tm, sym_set, {}, "c0_");

    std::vector<smt::TermRef> preconds;
    for (const auto &[sig, var] : bs.inputVars) {
        (void)sig;
        if (tm.varWidth(tm.term(var).varId) == 32)
            preconds.push_back(cpu::or1k::legalInsnConstraint(tm, var));
    }

    bool found = false;
    explorer.explore(
        bs.binding, roots, preconds, [&](const sym::Leaf &leaf) {
            // Lower the assertion over the post-state.
            sym::Binding post;
            for (rtl::SignalId sig = 0; sig < design.numSignals();
                 ++sig) {
                const rtl::Signal &s = design.signal(sig);
                if (s.kind != rtl::SignalKind::Register)
                    continue;
                auto it = leaf.nextRegs.find(sig);
                post[sig] = it != leaf.nextRegs.end()
                                ? it->second
                                : tm.mkConst(s.width,
                                             s.resetValue.bits());
            }
            sym::Lowering lower(design, tm, post);
            auto safe = lower.lower(assertion.cond);
            std::vector<smt::TermRef> q = leaf.pathCond;
            q.push_back(tm.mkNot(*safe));
            if (solver.check(q, nullptr) == smt::Result::Sat) {
                found = true;
                return false;
            }
            return true;
        });
    (void)found;
    return {timer.seconds(), explorer.stats().get("leaves"),
            solver.stats().get("sat_decisions")};
}

} // namespace

int
main()
{
    // Paper's six bugs, each triggerable by a single instruction (the b27
    // variant here fires on a one-instruction backward jump).
    const struct
    {
        cpu::BugId bug;
        const char *assertId;
        const char *paperOriginal;
        const char *paperHybrid;
        const char *paperComp;
        const char *paperCoi;
    } rows[] = {
        {cpu::BugId::b05, "a05_src_a", "3h50m", "3m41s", "14s", "2m11s"},
        {cpu::BugId::b09, "a09_epcr_sys", ">24h", "3s", "16m", "4m37s"},
        {cpu::BugId::b10, "a10_epcr_change", "19h31m", "35m55s", "16m",
         "2m11s"},
        {cpu::BugId::b13, "a13_src_b", ">24h", "3s", "15s", "2m12s"},
        {cpu::BugId::b24, "a24_gpr0_zero", "19h32m", "35m40s", "16m",
         "2m33s"},
        {cpu::BugId::b27, "a27_jump_target", ">24h", ">6h", "18m",
         "11m29s"},
    };

    const Config configs[] = {
        {"Original", sym::SearchMode::Random, false, false},
        {"+Hybrid", sym::SearchMode::Hybrid, false, false},
        {"+CompOpt", sym::SearchMode::Hybrid, true, false},
        {"+CoI", sym::SearchMode::Hybrid, true, true},
    };

    std::printf("Table III: effects of the optimizations (forward "
                "one-cycle search from reset)\n");
    std::printf("(paper CPU times in parentheses; our metric is SAT decisions — the "
                "engine-independent work measure; compare ratios)\n\n");
    const std::vector<int> widths{5, 20, 20, 20, 20};
    printRow({"No.", "Original", "+HybridSearch", "+CompilerOpts",
              "+CoI"},
             widths);
    printRule(widths);

    double totals[4] = {0, 0, 0, 0};
    for (const auto &row : rows) {
        rtl::Design d =
            cpu::or1k::buildOr1200(cpu::BugConfig::with(row.bug));
        auto asserts = cpu::or1k::or1200Assertions(d);
        const props::Assertion &a =
            props::findAssertion(asserts, row.assertId);

        // The optimized design (Verilator -O3 analog) preserves signal
        // ids, so the same assertion expression can be re-instantiated.
        rtl::Design opt =
            rtl::optimizeDesign(d, rtl::PassOptions{}, a.vars, nullptr);
        auto opt_asserts = cpu::or1k::or1200Assertions(opt);
        const props::Assertion &a_opt =
            props::findAssertion(opt_asserts, row.assertId);

        std::vector<std::string> cells{cpu::bugName(row.bug)};
        const char *paper_vals[4] = {row.paperOriginal, row.paperHybrid,
                                     row.paperComp, row.paperCoi};
        for (int c = 0; c < 4; ++c) {
            const Config &cfg = configs[c];
            const rtl::Design &dd = cfg.compilerOpts ? opt : d;
            const props::Assertion &aa = cfg.compilerOpts ? a_opt : a;
            SearchWork w = forwardSearch(dd, aa, cfg);
            totals[c] += static_cast<double>(w.decisions);
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%lluk dec (%s)",
                          static_cast<unsigned long long>(
                              w.decisions / 1000),
                          paper_vals[c]);
            cells.push_back(buf);
        }
        printRow(cells, widths);
    }
    printRule(widths);
    std::vector<std::string> total_cells{"Avg."};
    for (double t : totals) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.0fk dec", t / 6.0 / 1000.0);
        total_cells.push_back(buf);
    }
    printRow(total_cells, widths);
    std::printf("\nPaper observation to check: adding every optimization "
                "is not always fastest\n(hybrid search alone wins on some "
                "bugs), but the cumulative configuration is\norders of "
                "magnitude faster than the original on average.\n");
    return 0;
}
