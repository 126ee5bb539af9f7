/**
 * @file
 * Randomized cross-validation sweeps over generated designs and formulas:
 *
 *  - random expression DAGs: the optimization pipeline must preserve
 *    cycle-accurate behaviour, and the symbolic executor's leaf models
 *    must agree with concrete simulation (exercising the full
 *    lowering -> bit-blasting -> SAT -> model-readback stack on shapes no
 *    hand-written test would cover);
 *  - random small-width formulas: the solver's SAT/UNSAT verdicts must
 *    match brute-force enumeration.
 */

#include <gtest/gtest.h>

#include "rtl/builder.hh"
#include "rtl/passes/passes.hh"
#include "rtl/sim.hh"
#include "solver/solver.hh"
#include "sym/binding.hh"
#include "sym/executor.hh"
#include "util/rng.hh"

namespace coppelia
{
namespace
{

using rtl::Builder;
using rtl::Design;
using rtl::Node;

/** Generate a random design: a few inputs, registers, and a DAG of wires
 *  mixing arithmetic, logic, compares, selects, and control branches. */
Design
randomDesign(Rng &rng, int num_inputs, int num_regs, int num_wires)
{
    Design d("fuzz");
    Builder b(d);
    std::vector<Node> pool;

    for (int i = 0; i < num_inputs; ++i)
        pool.push_back(b.input("in" + std::to_string(i), 8));
    std::vector<Node> regs;
    for (int i = 0; i < num_regs; ++i) {
        regs.push_back(
            b.reg("r" + std::to_string(i), 8, rng.next() & 0xff));
        pool.push_back(regs.back());
    }

    b.process("fuzz_logic");
    auto pick = [&]() { return pool[rng.below(pool.size())]; };
    for (int i = 0; i < num_wires; ++i) {
        Node a = pick();
        Node c = pick();
        Node w;
        switch (rng.below(9)) {
          case 0: w = a + c; break;
          case 1: w = a - c; break;
          case 2: w = a & c; break;
          case 3: w = a | c; break;
          case 4: w = a ^ c; break;
          case 5: w = ~a; break;
          case 6:
            w = b.mux(ult(a, c), a, c);
            break;
          case 7:
            w = b.branchMux(eq(a.bits(1, 0), b.lit(2, rng.below(4))),
                            a + b.lit(8, 1), c);
            break;
          default:
            w = cat(a.bits(3, 0), c.bits(7, 4));
            break;
        }
        pool.push_back(b.wire("w" + std::to_string(i), w));
    }

    for (int i = 0; i < num_regs; ++i)
        b.next(regs[i], pool[pool.size() - 1 - (i % 3)]);
    d.markOutput(d.signalIdOf(
        "w" + std::to_string(num_wires - 1)));
    return d;
}

class FuzzDesign : public ::testing::TestWithParam<int>
{
};

TEST_P(FuzzDesign, PassesPreserveSemantics)
{
    Rng rng(GetParam() * 7907 + 11);
    Design d = randomDesign(rng, 3, 3, 12);
    Design opt = rtl::optimizeDesign(d, rtl::PassOptions{}, {});

    rtl::Simulator s0(d), s1(opt);
    for (int cycle = 0; cycle < 50; ++cycle) {
        for (int i = 0; i < 3; ++i) {
            const std::uint64_t v = rng.next() & 0xff;
            s0.setInput("in" + std::to_string(i), v);
            s1.setInput("in" + std::to_string(i), v);
        }
        s0.step();
        s1.step();
        for (int i = 0; i < 3; ++i) {
            ASSERT_EQ(s0.peek("r" + std::to_string(i)).bits(),
                      s1.peek("r" + std::to_string(i)).bits())
                << "r" << i << " cycle " << cycle << " seed "
                << GetParam();
        }
    }
}

TEST_P(FuzzDesign, SymbolicLeavesMatchSimulation)
{
    Rng rng(GetParam() * 104729 + 3);
    Design d = randomDesign(rng, 2, 2, 8);

    smt::TermManager tm;
    smt::Solver solver(tm);
    sym::ExplorerOptions opts;
    opts.maxLeaves = 40;
    sym::CycleExplorer ex(d, tm, opts);

    std::vector<rtl::SignalId> regs;
    for (rtl::SignalId s = 0; s < d.numSignals(); ++s) {
        if (d.signal(s).kind == rtl::SignalKind::Register)
            regs.push_back(s);
    }
    sym::BoundState bs = sym::bindCycle(
        d, tm, {regs.begin(), regs.end()}, {}, "f_");

    int checked = 0;
    ex.explore(bs.binding, regs, {}, [&](const sym::Leaf &leaf) {
        smt::Model m;
        if (solver.check(leaf.pathCond, &m) != smt::Result::Sat)
            return true;
        rtl::Simulator sim(d);
        for (const auto &[sig, var] : bs.regVars)
            sim.pokeRegister(sig, tm.eval(var, m));
        for (const auto &[sig, var] : bs.inputVars)
            sim.setInput(sig, tm.eval(var, m));
        sim.step();
        for (rtl::SignalId s : regs) {
            EXPECT_EQ(sim.peek(s).bits(),
                      tm.eval(leaf.nextRegs.at(s), m))
                << d.signal(s).name << " seed " << GetParam();
        }
        ++checked;
        return true;
    });
    EXPECT_GE(checked, 1) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDesign, ::testing::Range(0, 20));

/** Random formula vs brute force over all assignments (small widths). */
class FuzzFormula : public ::testing::TestWithParam<int>
{
};

TEST_P(FuzzFormula, VerdictMatchesBruteForce)
{
    Rng rng(GetParam() * 65537 + 19);
    smt::TermManager tm;
    smt::Solver solver(tm);

    const int wx = 1 + static_cast<int>(rng.below(5));
    const int wy = 1 + static_cast<int>(rng.below(5));
    smt::TermRef x = tm.mkVar("x", wx);
    smt::TermRef y = tm.mkVar("y", wy);
    smt::TermRef yx = tm.mkZExt(y, std::max(wx, wy));
    smt::TermRef xx = tm.mkZExt(x, std::max(wx, wy));

    // Build 2-4 random constraints.
    std::vector<smt::TermRef> cs;
    const int n = 2 + static_cast<int>(rng.below(3));
    for (int i = 0; i < n; ++i) {
        const std::uint64_t ka = rng.next() & smt::termMask(
                                                  std::max(wx, wy));
        smt::TermRef k = tm.mkConst(std::max(wx, wy), ka);
        switch (rng.below(5)) {
          case 0: cs.push_back(tm.mkUlt(xx, k)); break;
          case 1: cs.push_back(tm.mkEq(tm.mkAdd(xx, yx), k)); break;
          case 2: cs.push_back(tm.mkNe(tm.mkXor(xx, yx), k)); break;
          case 3: cs.push_back(tm.mkSlt(k, yx)); break;
          default: cs.push_back(tm.mkUle(yx, tm.mkAdd(xx, k))); break;
        }
    }

    // Brute force over all (x, y).
    bool expect_sat = false;
    for (std::uint64_t vx = 0; vx <= smt::termMask(wx) && !expect_sat;
         ++vx) {
        for (std::uint64_t vy = 0; vy <= smt::termMask(wy); ++vy) {
            smt::Model m;
            m.set(tm.term(x).varId, vx);
            m.set(tm.term(y).varId, vy);
            bool all = true;
            for (smt::TermRef c : cs)
                all = all && tm.eval(c, m) == 1;
            if (all) {
                expect_sat = true;
                break;
            }
        }
    }

    smt::Model model;
    smt::Result r = solver.check(cs, &model);
    ASSERT_EQ(r == smt::Result::Sat, expect_sat)
        << "seed " << GetParam();
    if (r == smt::Result::Sat) {
        for (smt::TermRef c : cs)
            EXPECT_EQ(tm.eval(c, model), 1u) << "seed " << GetParam();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzFormula, ::testing::Range(0, 40));

} // namespace
} // namespace coppelia
