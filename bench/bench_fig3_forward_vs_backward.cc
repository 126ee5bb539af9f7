/**
 * @file
 * Regenerates Figure 3's comparison: forward symbolic execution explores
 * O(N^M) paths over M clock cycles while the backward engine explores
 * O(N*M) (§II-D8). Measured two ways:
 *
 *  1. Exact path counts on a small accumulator machine where forward
 *     exploration to depth M is feasible (paths per cycle N = 3).
 *  2. The OR1200 model: leaves of one forward cycle (N_f) and the
 *     projected N_f^M growth, against the backward engine's measured
 *     explorations for real multi-instruction bugs.
 */

#include "bench_common.hh"

#include "rtl/builder.hh"
#include "solver/solver.hh"
#include "sym/binding.hh"
#include "sym/executor.hh"

using namespace coppelia;
using namespace coppelia::bench;

namespace
{

rtl::Design
toyMachine()
{
    rtl::Design d("toy");
    rtl::Builder b(d);
    auto op = b.input("op", 2);
    auto imm = b.input("imm", 8);
    auto acc = b.reg("acc", 8, 0);
    auto cnt = b.reg("cnt", 4, 0);
    auto sel = b.wire(
        "sel",
        b.branchMux(eq(op, b.lit(2, 1)), b.lit(2, 1),
                    b.branchMux(eq(op, b.lit(2, 2)), b.lit(2, 2),
                                b.lit(2, 0))));
    b.next(acc, b.mux(eq(sel, b.lit(2, 1)), acc + imm,
                      b.mux(eq(sel, b.lit(2, 2)), b.lit(8, 0), acc)));
    b.next(cnt, b.mux(eq(sel, b.lit(2, 1)), cnt + b.lit(4, 1), cnt));
    return d;
}

/** Forward exploration to depth M on concrete frontier states; returns
 *  total leaves explored. */
std::uint64_t
forwardExplore(const rtl::Design &d, int depth_limit)
{
    smt::TermManager tm;
    smt::Solver solver(tm);
    sym::CycleExplorer ex(d, tm);

    std::vector<rtl::SignalId> regs;
    for (rtl::SignalId s = 0; s < d.numSignals(); ++s) {
        if (d.signal(s).kind == rtl::SignalKind::Register)
            regs.push_back(s);
    }

    // Frontier of concrete register states (one test case per leaf:
    // conservative for forward, per §II-D8's N_f).
    std::vector<std::unordered_map<rtl::SignalId, std::uint64_t>>
        frontier{{}}; // reset
    std::uint64_t total_leaves = 0;
    for (int depth = 0; depth < depth_limit; ++depth) {
        std::vector<std::unordered_map<rtl::SignalId, std::uint64_t>>
            next_frontier;
        for (const auto &pin : frontier) {
            sym::BoundState bs = sym::bindCycle(
                d, tm, {}, pin,
                "d" + std::to_string(depth) + "n" +
                    std::to_string(next_frontier.size()) + "_");
            ex.explore(bs.binding, regs, {}, [&](const sym::Leaf &leaf) {
                ++total_leaves;
                smt::Model m;
                if (solver.check(leaf.pathCond, &m) == smt::Result::Sat) {
                    std::unordered_map<rtl::SignalId, std::uint64_t>
                        state;
                    for (rtl::SignalId s : regs)
                        state[s] = tm.eval(leaf.nextRegs.at(s), m);
                    next_frontier.push_back(std::move(state));
                }
                return true;
            });
        }
        frontier = std::move(next_frontier);
    }
    return total_leaves;
}

} // namespace

int
main()
{
    std::printf("Figure 3: forward vs backward search complexity\n\n");
    std::printf("Toy machine (N = 3 feasible paths per cycle):\n");
    const std::vector<int> widths{8, 22, 26};
    printRow({"cycles", "forward leaves", "backward explorations"},
             widths);
    printRule(widths);

    rtl::Design toy = toyMachine();
    rtl::Builder tb(toy);
    for (int m = 1; m <= 5; ++m) {
        std::uint64_t fwd = forwardExplore(toy, m);

        // Backward: target cnt == m (needs exactly m add instructions).
        props::Assertion a;
        a.id = "cnt_target";
        a.cond = ne(tb.read("cnt"), tb.lit(4, m)).ref();
        std::vector<bool> seen(toy.numSignals(), false);
        toy.collectSignals(a.cond, seen);
        for (rtl::SignalId s = 0; s < toy.numSignals(); ++s) {
            if (seen[s])
                a.vars.push_back(s);
        }
        bse::Options opts;
        opts.bound = m + 1;
        bse::BackwardEngine engine(toy, opts);
        bse::TriggerResult r = engine.buildTrigger(a);
        char fwd_s[32], bwd_s[48];
        std::snprintf(fwd_s, sizeof(fwd_s), "%llu",
                      static_cast<unsigned long long>(fwd));
        std::snprintf(bwd_s, sizeof(bwd_s), "%llu leaves, %d iter (%s)",
                      static_cast<unsigned long long>(
                          r.stats.get("leaves")),
                      r.iterations, bse::outcomeName(r.outcome));
        printRow({std::to_string(m), fwd_s, bwd_s}, widths);
    }

    std::printf("\nOR1200 model:\n");
    {
        rtl::Design d =
            cpu::or1k::buildOr1200(cpu::BugConfig::with(cpu::BugId::b01));
        auto asserts = cpu::or1k::or1200Assertions(d);
        const props::Assertion &a =
            props::findAssertion(asserts, "a01_spr_priv");

        // One forward cycle from reset to measure N_f.
        smt::TermManager tm;
        smt::Solver solver(tm);
        sym::CycleExplorer ex(d, tm);
        sym::BoundState bs = sym::bindFromReset(d, tm, "f_");
        std::vector<rtl::SignalId> regs;
        for (rtl::SignalId s = 0; s < d.numSignals(); ++s) {
            if (d.signal(s).kind == rtl::SignalKind::Register)
                regs.push_back(s);
        }
        std::uint64_t nf = 0;
        ex.explore(bs.binding, regs, {}, [&](const sym::Leaf &) {
            ++nf;
            return true;
        });
        std::printf("  forward: N_f = %llu leaves per cycle -> projected "
                    "N_f^M: %llu (M=2), %llu (M=3)\n",
                    static_cast<unsigned long long>(nf),
                    static_cast<unsigned long long>(nf * nf),
                    static_cast<unsigned long long>(nf * nf * nf));

        core::Coppelia tool(d, cpu::Processor::OR1200,
                            or1200DriverOptions(d, 90));
        core::ExploitResult r = tool.generateExploit(a);
        std::printf("  backward (b01, a %d-instruction trigger): %llu "
                    "leaves total, %d iterations, %.2fs (%s)\n",
                    r.triggerInstructions,
                    static_cast<unsigned long long>(
                        r.stats.get("leaves")),
                    r.iterations, r.seconds, bse::outcomeName(r.outcome));
    }
    std::printf("\nShape check: forward grows exponentially with the "
                "cycle count, backward\nlinearly (§II-D8: O(N_f^M) vs "
                "O(N_b * M)).\n");
    return 0;
}
