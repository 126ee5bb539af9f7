/**
 * @file
 * Tests for the RTL optimization pipeline: semantic preservation (optimized
 * design simulates identically on random stimulus), node-count reduction,
 * common subexpression elimination, dead-code elimination, and keep-root
 * protection for assertion signals.
 */

#include <gtest/gtest.h>

#include "rtl/builder.hh"
#include "rtl/passes/passes.hh"
#include "rtl/sim.hh"
#include "util/rng.hh"

namespace coppelia::rtl
{
namespace
{

/** Build a small ALU-ish design with deliberate redundancy. */
Design
redundantDesign()
{
    Design d("alu");
    Builder b(d);
    b.process("alu");
    auto a = b.input("a", 16);
    auto x = b.input("x", 16);
    // Duplicate subexpressions (CSE fodder).
    auto s1 = b.wire("s1", a + x);
    auto s2 = b.wire("s2", (a + x) ^ (a + x));
    // Constant-foldable logic.
    auto k = b.wire("k", (b.lit(16, 3) + b.lit(16, 4)) * b.lit(16, 2));
    // Identity-rewritable logic.
    auto idw = b.wire("id", (a & b.lit(16, 0xffff)) | b.lit(16, 0));
    // A dead wire nothing reads.
    (void)b.wire("dead", (a - x) * b.lit(16, 17));
    auto out = b.wire("out", s1 + s2 + k + idw);
    b.output("out");
    auto r = b.reg("r", 16, 0);
    b.next(r, out);
    return d;
}

TEST(Passes, ReducesLiveNodeCount)
{
    Design d = redundantDesign();
    PassStats st;
    Design opt = optimizeDesign(d, PassOptions{}, {}, &st);
    EXPECT_LT(st.exprsAfter, st.exprsBefore);
    EXPECT_GT(st.folds, 0);
    EXPECT_GT(st.rewrites, 0);
}

TEST(Passes, DropsDeadWires)
{
    Design d = redundantDesign();
    PassStats st;
    Design opt = optimizeDesign(d, PassOptions{}, {}, &st);
    EXPECT_GE(st.wiresDropped, 1);
    // The dead wire's definition is gone in the optimized design.
    EXPECT_EQ(opt.signal(opt.signalIdOf("dead")).def, NoExpr);
}

TEST(Passes, KeepRootsProtectSignals)
{
    Design d = redundantDesign();
    std::vector<SignalId> keep{d.signalIdOf("dead")};
    Design opt = optimizeDesign(d, PassOptions{}, keep, nullptr);
    EXPECT_NE(opt.signal(opt.signalIdOf("dead")).def, NoExpr);
}

TEST(Passes, SignalIdsAndNamesPreserved)
{
    Design d = redundantDesign();
    Design opt = optimizeDesign(d, PassOptions{}, {}, nullptr);
    ASSERT_EQ(opt.numSignals(), d.numSignals());
    for (SignalId s = 0; s < d.numSignals(); ++s) {
        EXPECT_EQ(opt.signal(s).name, d.signal(s).name);
        EXPECT_EQ(opt.signal(s).width, d.signal(s).width);
        EXPECT_EQ(opt.signal(s).kind, d.signal(s).kind);
    }
}

TEST(Passes, SemanticsPreservedOnRandomStimulus)
{
    Design d = redundantDesign();
    Design opt = optimizeDesign(d, PassOptions{}, {}, nullptr);
    Simulator s0(d), s1(opt);
    Rng rng(99);
    for (int cyc = 0; cyc < 100; ++cyc) {
        std::uint64_t va = rng.next() & 0xffff;
        std::uint64_t vx = rng.next() & 0xffff;
        s0.setInput("a", va);
        s1.setInput("a", va);
        s0.setInput("x", vx);
        s1.setInput("x", vx);
        s0.step();
        s1.step();
        EXPECT_EQ(s0.peek("out").bits(), s1.peek("out").bits());
        EXPECT_EQ(s0.peek("r").bits(), s1.peek("r").bits());
    }
}

TEST(Passes, CseSharesStructurallyEqualNodes)
{
    Design d("t");
    Builder b(d);
    auto a = b.input("a", 8);
    auto x = b.input("x", 8);
    (void)b.wire("s1", a + x);
    (void)b.wire("s2", a + x);
    b.output("s1");
    b.output("s2");
    // The source design keeps both adds; the CSE stage shares them.
    const auto def = [](const Design &des, const char *name) {
        return des.signal(des.signalIdOf(name)).def;
    };
    ASSERT_NE(def(d, "s1"), def(d, "s2"));
    Design opt = optimizeDesign(d, PassOptions{}, {});
    EXPECT_EQ(def(opt, "s1"), def(opt, "s2"));
    PassOptions no_cse;
    no_cse.cse = false;
    Design kept = optimizeDesign(d, no_cse, {});
    EXPECT_NE(def(kept, "s1"), def(kept, "s2"));
}

TEST(Passes, ConstantFoldingAlone)
{
    Design d("t");
    Builder b(d);
    (void)b.wire("k", b.lit(8, 2) + b.lit(8, 3));
    b.output("k");
    PassOptions opts;
    opts.algebraic = false;
    opts.cse = false;
    opts.deadCode = false;
    PassStats st;
    Design opt = optimizeDesign(d, opts, {}, &st);
    EXPECT_EQ(st.folds, 1);
    const Expr &e = opt.expr(opt.signal(opt.signalIdOf("k")).def);
    EXPECT_EQ(e.op, Op::Const);
    EXPECT_EQ(e.imm, 5u);
}

TEST(Passes, IdentityRules)
{
    Design d("t");
    Builder b(d);
    auto a = b.input("a", 8);
    (void)b.wire("andz", a & b.lit(8, 0));       // -> 0
    (void)b.wire("orz", a | b.lit(8, 0));        // -> a
    (void)b.wire("xorself", a ^ a);              // -> 0
    (void)b.wire("muxsame", b.mux(a.bit(0), a, a)); // -> a
    for (auto n : {"andz", "orz", "xorself", "muxsame"})
        d.markOutput(d.signalIdOf(n));
    PassStats st;
    Design opt = optimizeDesign(d, PassOptions{}, {}, &st);
    EXPECT_GE(st.rewrites, 4);
    const Expr &andz = opt.expr(opt.signal(opt.signalIdOf("andz")).def);
    EXPECT_EQ(andz.op, Op::Const);
    EXPECT_EQ(andz.imm, 0u);
    const Expr &orz = opt.expr(opt.signal(opt.signalIdOf("orz")).def);
    EXPECT_EQ(orz.op, Op::Signal);
}

TEST(Passes, IdempotentSecondRun)
{
    Design d = redundantDesign();
    PassStats st1, st2;
    Design o1 = optimizeDesign(d, PassOptions{}, {}, &st1);
    Design o2 = optimizeDesign(o1, PassOptions{}, {}, &st2);
    EXPECT_EQ(st2.exprsAfter, st1.exprsAfter);
}

TEST(Passes, LiveExprCountCountsReachableOnly)
{
    Design d("t");
    Builder b(d);
    auto a = b.input("a", 8);
    (void)b.wire("dead", a * a * a);
    auto r = b.reg("r", 8, 0);
    b.next(r, a + b.lit(8, 1));
    // Live: reg next-state (a, 1, add) + the signal read by it.
    int live = liveExprCount(d);
    int total = d.numExprs();
    EXPECT_LT(live, total);
}

} // namespace
} // namespace coppelia::rtl
