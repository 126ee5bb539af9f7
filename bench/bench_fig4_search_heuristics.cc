/**
 * @file
 * Regenerates Figure 4: instruction coverage over time (upper plot) and
 * test cases generated per instruction over time (lower plot), for BFS,
 * DFS, and the hybrid heuristic, during a one-cycle exploration of the
 * OR1200 with symbolic inputs.
 *
 * Expected shape (paper §IV-D): BFS covers the most instructions per unit
 * time; DFS generates the most test cases per instruction; the hybrid
 * heuristic sits between both curves, combining the advantages.
 */

#include <set>

#include "bench_common.hh"

#include "solver/solver.hh"
#include "sym/binding.hh"
#include "sym/executor.hh"

using namespace coppelia;
using namespace coppelia::bench;

namespace
{

struct Sample
{
    double t;
    int instructionsCovered;
    int testCases;
};

std::vector<Sample>
run(sym::SearchMode mode)
{
    rtl::Design d = cpu::or1k::buildOr1200();
    smt::TermManager tm;
    smt::Solver solver(tm);
    sym::ExplorerOptions eopts;
    eopts.search = mode;
    eopts.bfsQuota = 4; // scaled version of the paper's 10k/500k split
    eopts.dfsQuota = 200;
    sym::CycleExplorer ex(d, tm, eopts);

    sym::BoundState bs = sym::bindFromReset(d, tm, "c_");
    std::vector<rtl::SignalId> regs;
    for (rtl::SignalId s = 0; s < d.numSignals(); ++s) {
        if (d.signal(s).kind == rtl::SignalKind::Register)
            regs.push_back(s);
    }
    const rtl::SignalId insn_sig = d.signalIdOf("insn");

    Timer timer;
    std::set<std::uint32_t> opcodes;
    int cases = 0;
    std::vector<Sample> samples;

    ex.explore(bs.binding, regs, {}, [&](const sym::Leaf &leaf) {
        // Enumerate several test cases per leaf (DFS-style depth within
        // one instruction) by excluding previous input assignments.
        std::vector<smt::TermRef> query = leaf.pathCond;
        for (int k = 0; k < 6; ++k) {
            smt::Model m;
            if (solver.check(query, &m) != smt::Result::Sat)
                break;
            const std::uint64_t insn =
                tm.eval(bs.inputVars.at(insn_sig), m);
            opcodes.insert(static_cast<std::uint32_t>(insn >> 26));
            ++cases;
            query.push_back(tm.mkNot(
                tm.mkEq(bs.inputVars.at(insn_sig),
                        tm.mkConst(32, insn))));
            samples.push_back(
                {timer.seconds(), static_cast<int>(opcodes.size()),
                 cases});
        }
        return true;
    });
    samples.push_back({timer.seconds(),
                       static_cast<int>(opcodes.size()), cases});
    return samples;
}

int
sampleAt(const std::vector<Sample> &samples, double t, bool covered)
{
    int v = 0;
    for (const Sample &s : samples) {
        if (s.t <= t)
            v = covered ? s.instructionsCovered : s.testCases;
    }
    return v;
}

} // namespace

int
main()
{
    std::printf("Figure 4: search heuristic comparison (one-cycle OR1200 "
                "exploration)\n\n");

    auto bfs = run(sym::SearchMode::BFS);
    auto dfs = run(sym::SearchMode::DFS);
    auto hyb = run(sym::SearchMode::Hybrid);

    const double t_end = std::max(
        {bfs.back().t, dfs.back().t, hyb.back().t});

    std::printf("Instructions covered over time (paper upper plot; BFS "
                "should lead):\n");
    const std::vector<int> widths{10, 8, 8, 8};
    printRow({"time", "BFS", "DFS", "Hybrid"}, widths);
    printRule(widths);
    for (int i = 1; i <= 8; ++i) {
        const double t = t_end * i / 8.0;
        char tb[16];
        std::snprintf(tb, sizeof(tb), "%.2fs", t);
        printRow({tb, std::to_string(sampleAt(bfs, t, true)),
                  std::to_string(sampleAt(dfs, t, true)),
                  std::to_string(sampleAt(hyb, t, true))},
                 widths);
    }

    std::printf("\nTest cases generated over time (paper lower plot "
                "reports per-instruction\ndepth; DFS should lead "
                "early):\n");
    printRow({"time", "BFS", "DFS", "Hybrid"}, widths);
    printRule(widths);
    for (int i = 1; i <= 8; ++i) {
        const double t = t_end * i / 8.0;
        char tb[16];
        std::snprintf(tb, sizeof(tb), "%.2fs", t);
        printRow({tb, std::to_string(sampleAt(bfs, t, false)),
                  std::to_string(sampleAt(dfs, t, false)),
                  std::to_string(sampleAt(hyb, t, false))},
                 widths);
    }

    std::printf("\nFinal: BFS %d instrs / %d cases; DFS %d instrs / %d "
                "cases; Hybrid %d instrs / %d cases\n",
                bfs.back().instructionsCovered, bfs.back().testCases,
                dfs.back().instructionsCovered, dfs.back().testCases,
                hyb.back().instructionsCovered, hyb.back().testCases);
    return 0;
}
