/**
 * @file
 * Tests for the symbolic executor: forking at control branches, path
 * condition consistency, searcher orderings, lowering without decisions,
 * the lowering span in a traced exploration, the one lowering an
 * exploration shares across its paths (switching between sibling paths,
 * the nodes it saves, and a differential against a fresh lowering per
 * path on every OR1200 assertion cone and on Mor1kx and RI5CY cones),
 * and the key soundness property that for any leaf and any model of its
 * path condition, the leaf's next-state terms agree with one concrete
 * simulation step of the design.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "coi/coi.hh"
#include "cpu/or1k/core.hh"
#include "cpu/riscv/core.hh"
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

/** A leaf as the shared-memo differential compares it: the path
 *  condition, and the next-state terms sorted by register. */
using LeafKey = std::pair<std::vector<TermRef>,
                          std::vector<std::pair<rtl::SignalId, TermRef>>>;

LeafKey
leafKey(std::vector<TermRef> path_cond,
        const std::unordered_map<rtl::SignalId, TermRef> &next_regs)
{
    std::vector<std::pair<rtl::SignalId, TermRef>> next(next_regs.begin(),
                                                        next_regs.end());
    std::sort(next.begin(), next.end());
    return {std::move(path_cond), std::move(next)};
}

/** What the reference explorer produced. */
struct FreshRun
{
    std::vector<LeafKey> leaves; ///< sorted
    std::uint64_t lowered = 0;   ///< nodes all its Lowerings lowered
};

/**
 * The cycle explorer's loop as it was before one lowering served a whole
 * exploration: a stack of (decisions, path condition) and a fresh
 * Lowering per popped state, forking both arms of each pending branch.
 */
FreshRun
exploreWithFreshLowerings(const Design &d, smt::TermManager &tm,
                          const Binding &binding,
                          const std::vector<rtl::SignalId> &roots)
{
    FreshRun run;
    std::vector<PathState> stack(1);
    while (!stack.empty()) {
        PathState state = std::move(stack.back());
        stack.pop_back();
        Lowering lowering(d, tm, binding);
        lowering.switchPath(state.decisions);
        std::unordered_map<rtl::SignalId, TermRef> next;
        bool suspended = false;
        for (rtl::SignalId sig : roots) {
            const rtl::ExprRef def = d.signal(sig).def;
            auto t = def == rtl::NoExpr ? lowering.lowerSignal(sig)
                                        : lowering.lower(def);
            if (!t) {
                suspended = true;
                break;
            }
            next[sig] = *t;
        }
        run.lowered += lowering.lowered();
        if (!suspended) {
            run.leaves.push_back(leafKey(std::move(state.pathCond), next));
            continue;
        }
        const PendingBranch &pb = lowering.pending();
        for (bool arm : {false, true}) {
            PathState child = state;
            child.decisions.emplace_back(pb.ite, arm);
            child.pathCond.push_back(arm ? pb.cond : tm.mkNot(pb.cond));
            stack.push_back(std::move(child));
        }
    }
    std::sort(run.leaves.begin(), run.leaves.end());
    return run;
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
    // A Lowering starts on the empty path, and every caller but the
    // explorer keeps it there: the op decode's first control branch
    // suspends the lowering and is reported as pending.
    BoundState bs = bindCycle(d, tm, {d.signalIdOf("acc")}, {}, "c0_");
    Lowering lowering(d, tm, bs.binding);
    const rtl::ExprRef next = d.signal(d.signalIdOf("acc")).def;
    EXPECT_FALSE(lowering.lower(next).has_value());
    EXPECT_NE(lowering.pending().ite, rtl::NoExpr);
    EXPECT_NE(lowering.pending().cond, smt::NoTerm);
}

TEST_F(ToyExplore, SwitchingBetweenSiblingPathsKeepsTheirTerms)
{
    // The decode is ite(op == 1, acc + imm, ite(op == 2, 0, acc)). Paths
    // A and B share the outer branch's else arm and take opposite arms of
    // the inner one, so each switch keeps the conditions' entries and
    // must drop every entry that read the inner decision.
    const rtl::SignalId acc = d.signalIdOf("acc");
    BoundState bs = bindCycle(d, tm, {acc}, {}, "c0_");
    const rtl::ExprRef next = d.signal(acc).def;
    Lowering probe(d, tm, bs.binding);
    ASSERT_FALSE(probe.lower(next).has_value());
    const rtl::ExprRef outer = probe.pending().ite;
    probe.switchPath({{outer, false}});
    ASSERT_FALSE(probe.lower(next).has_value());
    const rtl::ExprRef inner = probe.pending().ite;
    const Decisions path_a = {{outer, false}, {inner, true}};
    const Decisions path_b = {{outer, false}, {inner, false}};

    auto fresh = [&](const Decisions &path) {
        Lowering lowering(d, tm, bs.binding);
        lowering.switchPath(path);
        return lowering.lower(next);
    };
    const auto term_a = fresh(path_a);
    const auto term_b = fresh(path_b);
    ASSERT_TRUE(term_a.has_value());
    ASSERT_TRUE(term_b.has_value());
    EXPECT_EQ(*term_a, tm.mkConst(8, 0));
    EXPECT_EQ(*term_b, bs.regVars.at(acc));

    Lowering shared(d, tm, bs.binding);
    for (const Decisions *path : {&path_a, &path_b, &path_a}) {
        shared.switchPath(*path);
        EXPECT_EQ(shared.lower(next), path == &path_a ? term_a : term_b);
    }
}

TEST_F(ToyExplore, SiblingPathsShareTheirLowering)
{
    // Five pops: the root, both arms of the outer branch, both arms of
    // the inner one. Fresh lowerings re-lower every path's decode from
    // its leaves up; the explorer's one lowering keeps the conditions and
    // operands every path reads, and lowers again only the branch nodes
    // above a decision the next path does not share.
    const rtl::SignalId acc = d.signalIdOf("acc");
    BoundState bs = bindCycle(d, tm, {acc}, {}, "c0_");
    CycleExplorer ex(d, tm);
    ex.explore(bs.binding, {acc}, {}, [](const Leaf &) { return true; });
    const FreshRun fresh = exploreWithFreshLowerings(d, tm, bs.binding, {acc});
    EXPECT_EQ(ex.stats().get("forks") + ex.stats().get("leaves"), 5u);
    EXPECT_EQ(fresh.lowered, 34u);
    EXPECT_EQ(ex.stats().get("lowered_nodes"), 17u);
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

/**
 * The explorer's one lowering per exploration against a fresh lowering
 * per popped path, on the real cores: for every assertion cone of the
 * OR1200, and for cones of the Mor1kx and the RI5CY, each search order
 * must yield exactly the leaves of the reference loop. A memo entry kept
 * across a switch that read a decision the new path does not share
 * changes a term, and the hash-consed TermRefs then differ.
 */
TEST(SymSharedMemo, LeavesMatchFreshLoweringOnCores)
{
    auto check = [](const Design &d,
                    const std::vector<props::Assertion> &assertions) {
        smt::TermManager tm;
        for (const props::Assertion &assertion : assertions) {
            // The cone as BackwardEngine::symbolicRegisters takes it.
            const coi::CoiResult cone = coi::analyze(d, assertion.vars);
            std::vector<rtl::SignalId> roots(cone.coneRegisters.begin(),
                                             cone.coneRegisters.end());
            std::sort(roots.begin(), roots.end());
            BoundState bs = bindCycle(d, tm, cone.coneRegisters, {}, "c0_");
            const FreshRun want =
                exploreWithFreshLowerings(d, tm, bs.binding, roots);
            ASSERT_GT(want.leaves.size(), 1u) << assertion.id;
            for (SearchMode mode : {SearchMode::BFS, SearchMode::DFS,
                                    SearchMode::Random, SearchMode::Hybrid}) {
                ExplorerOptions opts;
                opts.search = mode;
                CycleExplorer ex(d, tm, opts);
                std::vector<LeafKey> got;
                EXPECT_TRUE(ex.explore(bs.binding, roots, {},
                                       [&](const Leaf &leaf) {
                                           got.push_back(leafKey(
                                               leaf.pathCond,
                                               leaf.nextRegs));
                                           return true;
                                       }));
                std::sort(got.begin(), got.end());
                // Compared whole: gtest would print every term of a miss.
                EXPECT_TRUE(got == want.leaves)
                    << d.name() << " " << assertion.id << " "
                    << searchModeName(mode) << ": " << got.size()
                    << " leaves against " << want.leaves.size();
                EXPECT_LT(ex.stats().get("lowered_nodes"), want.lowered)
                    << d.name() << " " << assertion.id << " "
                    << searchModeName(mode);
            }
        }
    };
    Design or1200 = cpu::or1k::buildOr1200();
    const auto or1200_assertions = cpu::or1k::or1200Assertions(or1200);
    ASSERT_EQ(or1200_assertions.size(), 35u);
    check(or1200, or1200_assertions);

    Design mor1kx = cpu::or1k::buildMor1kx();
    const auto mor1kx_assertions = cpu::or1k::mor1kxAssertions(mor1kx);
    check(mor1kx, mor1kx_assertions);

    Design ri5cy = cpu::riscv::buildRi5cy();
    const auto ri5cy_assertions = cpu::riscv::ri5cyAssertions(ri5cy);
    check(ri5cy, ri5cy_assertions);
}

} // namespace
} // namespace coppelia::sym
