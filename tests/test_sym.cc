/**
 * @file
 * Tests for the symbolic executor: forking at control branches, path
 * condition consistency, searcher orderings, lowering without decisions,
 * the lowering span in a traced exploration, and the key soundness
 * property that for any leaf and any model of its path condition, the
 * leaf's next-state terms agree with one concrete simulation step of the
 * design.
 */

#include <gtest/gtest.h>

#include "rtl/builder.hh"
#include "rtl/sim.hh"
#include "solver/solver.hh"
#include "sym/binding.hh"
#include "sym/executor.hh"
#include "trace/fold.hh"
#include "trace/trace.hh"
#include "util/rng.hh"

namespace coppelia::sym
{
namespace
{

using rtl::Builder;
using rtl::Design;
using rtl::Node;
using smt::TermRef;

/**
 * A toy 3-op accumulator machine: op 0 holds, op 1 adds the immediate,
 * op 2 clears. Decoding uses control branches like a real decode case
 * statement would.
 */
Design
toyMachine()
{
    Design d("toy");
    Builder b(d);
    auto op = b.input("op", 2);
    auto imm = b.input("imm", 8);
    auto acc = b.reg("acc", 8, 0);
    auto next = b.select(op,
                         {
                             {1, acc + imm},
                             {2, b.lit(8, 0)},
                         },
                         acc);
    b.next(acc, next);
    return d;
}

class ToyExplore : public ::testing::Test
{
  protected:
    Design d = toyMachine();
    smt::TermManager tm;
    smt::Solver solver{tm};
};

TEST_F(ToyExplore, EnumeratesAllPaths)
{
    CycleExplorer ex(d, tm);
    BoundState bs = bindCycle(d, tm, {d.signalIdOf("acc")}, {}, "c0_");
    int leaves = 0;
    bool completed = ex.explore(
        bs.binding, {d.signalIdOf("acc")}, {},
        [&](const Leaf &) {
            ++leaves;
            return true;
        });
    EXPECT_TRUE(completed);
    // Three feasible paths: op==1, op==2, default.
    EXPECT_EQ(leaves, 3);
    EXPECT_EQ(ex.stats().get("forks"), 2u);
}

TEST_F(ToyExplore, CallbackCanStopEarly)
{
    CycleExplorer ex(d, tm);
    BoundState bs = bindCycle(d, tm, {d.signalIdOf("acc")}, {}, "c0_");
    int leaves = 0;
    bool completed = ex.explore(
        bs.binding, {d.signalIdOf("acc")}, {},
        [&](const Leaf &) {
            ++leaves;
            return false;
        });
    EXPECT_FALSE(completed);
    EXPECT_EQ(leaves, 1);
}

TEST_F(ToyExplore, PreconditionPrunesPaths)
{
    CycleExplorer ex(d, tm);
    BoundState bs = bindCycle(d, tm, {d.signalIdOf("acc")}, {}, "c0_");
    // Constrain op == 2: only the clear path remains feasible. The
    // explorer asks no solver, so all three decode paths reach the
    // callback, and the precondition in each path condition leaves the
    // caller's query satisfiable on exactly one of them.
    TermRef pre =
        tm.mkEq(bs.inputVars.at(d.signalIdOf("op")), tm.mkConst(2, 2));
    int leaves = 0;
    int feasible = 0;
    ex.explore(bs.binding, {d.signalIdOf("acc")}, {pre},
               [&](const Leaf &leaf) {
                   ++leaves;
                   smt::Model m;
                   if (solver.check(leaf.pathCond, &m) != smt::Result::Sat)
                       return true;
                   ++feasible;
                   // The next acc must be the constant 0 on this path.
                   std::vector<TermRef> q = leaf.pathCond;
                   TermRef next = leaf.nextRegs.at(d.signalIdOf("acc"));
                   q.push_back(tm.mkNot(tm.mkEq(next, tm.mkConst(8, 0))));
                   EXPECT_EQ(solver.check(q, &m), smt::Result::Unsat);
                   return true;
               });
    EXPECT_EQ(leaves, 3);
    EXPECT_EQ(feasible, 1);
    EXPECT_EQ(ex.stats().get("forks"), 2u);
}

TEST_F(ToyExplore, ConcreteRegisterSkipsSymbolicState)
{
    CycleExplorer ex(d, tm);
    // acc pinned to 5 concretely (not in the symbolic set).
    BoundState bs = bindCycle(d, tm, {}, {{d.signalIdOf("acc"), 5}}, "c0_");
    EXPECT_EQ(bs.regVars.size(), 0u);
    bool found_add = false;
    ex.explore(bs.binding, {d.signalIdOf("acc")}, {},
               [&](const Leaf &leaf) {
                   // On the add path the next value is 5 + imm.
                   smt::Model m;
                   std::vector<TermRef> q = leaf.pathCond;
                   TermRef next = leaf.nextRegs.at(d.signalIdOf("acc"));
                   TermRef imm_v = bs.inputVars.at(d.signalIdOf("imm"));
                   q.push_back(tm.mkEq(imm_v, tm.mkConst(8, 7)));
                   q.push_back(tm.mkEq(next, tm.mkConst(8, 12)));
                   if (solver.check(q, &m) == smt::Result::Sat)
                       found_add = true;
                   return true;
               });
    EXPECT_TRUE(found_add);
}

TEST_F(ToyExplore, MaxLeavesLimitStops)
{
    ExplorerOptions opts;
    opts.maxLeaves = 1;
    CycleExplorer ex(d, tm, opts);
    BoundState bs = bindCycle(d, tm, {d.signalIdOf("acc")}, {}, "c0_");
    int leaves = 0;
    bool completed = ex.explore(bs.binding, {d.signalIdOf("acc")}, {},
                                [&](const Leaf &) {
                                    ++leaves;
                                    return true;
                                });
    EXPECT_FALSE(completed);
    EXPECT_EQ(leaves, 1);
}

TEST_F(ToyExplore, TraceFoldsLoweringUnderExplore)
{
    // Every popped state lowers its roots inside one sym.lower span, and
    // nothing else nests in sym.explore: the explorer asks no solver and
    // this callback makes no query. So the fold splits sym.explore's
    // time exactly into sym.lower and the explorer's own self time.
    trace::setEnabled(false);
    trace::clear();
    trace::setEnabled(true);
    CycleExplorer ex(d, tm);
    BoundState bs = bindCycle(d, tm, {d.signalIdOf("acc")}, {}, "c0_");
    ex.explore(bs.binding, {d.signalIdOf("acc")}, {},
               [](const Leaf &) { return true; });
    trace::setEnabled(false);
    const trace::FoldReport report = trace::foldLive();
    trace::clear();

    const trace::FoldRow *explore = report.find("sym.explore");
    const trace::FoldRow *lower = report.find("sym.lower");
    ASSERT_NE(explore, nullptr);
    ASSERT_NE(lower, nullptr);
    EXPECT_EQ(explore->count, 1u);
    // One lowering per popped state: the root, the two forks' children.
    EXPECT_EQ(lower->count,
              ex.stats().get("forks") + ex.stats().get("leaves"));
    EXPECT_EQ(lower->count, 5u);
    EXPECT_EQ(lower->selfUs, lower->totalUs);
    EXPECT_EQ(explore->selfUs + lower->totalUs, explore->totalUs);
}

TEST_F(ToyExplore, LoweringWithoutDecisionsSuspendsAtBranch)
{
    // `{}` selects no decision map at all, so nothing dangles once this
    // statement ends: the op decode's first control branch suspends the
    // lowering and is reported as pending.
    BoundState bs = bindCycle(d, tm, {d.signalIdOf("acc")}, {}, "c0_");
    Lowering lowering(d, tm, bs.binding, {});
    const rtl::ExprRef next = d.signal(d.signalIdOf("acc")).def;
    EXPECT_FALSE(lowering.lower(next).has_value());
    EXPECT_NE(lowering.pending().ite, rtl::NoExpr);
    EXPECT_NE(lowering.pending().cond, smt::NoTerm);
}

TEST(Searcher, BfsIsFifo)
{
    Searcher s(SearchMode::BFS, 1, 1, 1);
    for (int i = 0; i < 3; ++i) {
        PathState p;
        p.pathCond.push_back(i);
        s.push(std::move(p));
    }
    EXPECT_EQ(s.pop().pathCond[0], 0);
    EXPECT_EQ(s.pop().pathCond[0], 1);
    EXPECT_EQ(s.pop().pathCond[0], 2);
}

TEST(Searcher, DfsIsLifo)
{
    Searcher s(SearchMode::DFS, 1, 1, 1);
    for (int i = 0; i < 3; ++i) {
        PathState p;
        p.pathCond.push_back(i);
        s.push(std::move(p));
    }
    EXPECT_EQ(s.pop().pathCond[0], 2);
    EXPECT_EQ(s.pop().pathCond[0], 1);
    EXPECT_EQ(s.pop().pathCond[0], 0);
}

TEST(Searcher, HybridAlternatesPhases)
{
    // Quotas 2 BFS then 2 DFS: pops should come front, front, back, back.
    Searcher s(SearchMode::Hybrid, 2, 2, 1);
    for (int i = 0; i < 6; ++i) {
        PathState p;
        p.pathCond.push_back(i);
        s.push(std::move(p));
    }
    EXPECT_EQ(s.pop().pathCond[0], 0); // bfs
    EXPECT_EQ(s.pop().pathCond[0], 1); // bfs
    EXPECT_EQ(s.pop().pathCond[0], 5); // dfs
    EXPECT_EQ(s.pop().pathCond[0], 4); // dfs
    EXPECT_EQ(s.pop().pathCond[0], 2); // bfs again
}

TEST(Searcher, RandomIsDeterministicPerSeed)
{
    auto run = [](std::uint64_t seed) {
        Searcher s(SearchMode::Random, 1, 1, seed);
        for (int i = 0; i < 8; ++i) {
            PathState p;
            p.pathCond.push_back(i);
            s.push(std::move(p));
        }
        std::vector<int> order;
        while (!s.empty())
            order.push_back(s.pop().pathCond[0]);
        return order;
    };
    EXPECT_EQ(run(7), run(7));
    EXPECT_NE(run(7), run(8));
}

/**
 * Soundness property: for every leaf and a model of its path condition,
 * concretely simulating one cycle from the modeled register/input values
 * produces exactly the modeled next-state values.
 */
class SymConcreteAgreement : public ::testing::TestWithParam<int>
{
};

TEST_P(SymConcreteAgreement, LeafModelsMatchSimulation)
{
    const int seed = GetParam();
    Design d = toyMachine();
    smt::TermManager tm;
    smt::Solver solver(tm);
    ExplorerOptions opts;
    opts.seed = seed + 1;
    opts.search = static_cast<SearchMode>(seed % 4);
    CycleExplorer ex(d, tm, opts);
    const rtl::SignalId acc = d.signalIdOf("acc");
    BoundState bs = bindCycle(d, tm, {acc}, {}, "c0_");

    int checked = 0;
    ex.explore(bs.binding, {acc}, {}, [&](const Leaf &leaf) {
        smt::Model m;
        if (solver.check(leaf.pathCond, &m) != smt::Result::Sat)
            return true; // an infeasible path: nothing to simulate
        // Drive the simulator with the model's inputs and register state.
        rtl::Simulator sim(d);
        sim.pokeRegister(acc,
                         tm.eval(bs.regVars.at(acc), m));
        for (const auto &[sig, var] : bs.inputVars)
            sim.setInput(sig, tm.eval(var, m));
        sim.step();
        const std::uint64_t expect =
            tm.eval(leaf.nextRegs.at(acc), m);
        EXPECT_EQ(sim.peek(acc).bits(), expect) << "seed " << seed;
        ++checked;
        return true;
    });
    EXPECT_GE(checked, 3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SymConcreteAgreement,
                         ::testing::Range(0, 8));

} // namespace
} // namespace coppelia::sym
