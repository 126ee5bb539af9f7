/**
 * @file
 * Unit tests for the RTL IR: Value semantics, expression construction and
 * evaluation, the two-phase simulator, and topological wire ordering.
 * Includes property-style parameterized sweeps checking operator semantics
 * against plain C++ arithmetic over random operands, a differential of the
 * simulator's schedule against Design::eval on the buggy cores, and the
 * settle skip against a simulator that settles every time.
 */

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cpu/bugs.hh"
#include "cpu/or1k/core.hh"
#include "cpu/riscv/core.hh"
#include "rtl/builder.hh"
#include "rtl/design.hh"
#include "rtl/sim.hh"
#include "util/rng.hh"

namespace coppelia::rtl
{
namespace
{

TEST(Value, MasksToWidth)
{
    Value v(4, 0xff);
    EXPECT_EQ(v.bits(), 0xfu);
    EXPECT_EQ(v.width(), 4);
}

TEST(Value, SignedInterpretation)
{
    EXPECT_EQ(Value(4, 0x8).toInt(), -8);
    EXPECT_EQ(Value(4, 0x7).toInt(), 7);
    EXPECT_EQ(Value(32, 0xffffffff).toInt(), -1);
    EXPECT_EQ(Value(64, ~0ull).toInt(), -1);
}

TEST(Value, BitAccess)
{
    Value v(8, 0b10100101);
    EXPECT_TRUE(v.bit(0));
    EXPECT_FALSE(v.bit(1));
    EXPECT_TRUE(v.bit(7));
}

TEST(Value, EqualityIsWidthSensitive)
{
    EXPECT_NE(Value(8, 1), Value(9, 1));
    EXPECT_EQ(Value(8, 1), Value(8, 1));
}

TEST(Value, ToStringVerilogStyle)
{
    EXPECT_EQ(Value(32, 0x1234).toString(), "32'h1234");
}

class ExprEval : public ::testing::Test
{
  protected:
    Design d{"t"};
    Builder b{d};

    Value
    evalNode(const Node &n, const std::vector<Value> &env = {})
    {
        return d.eval(n.ref(), env);
    }
};

TEST_F(ExprEval, ConstantsAndWidths)
{
    auto k = b.lit(12, 0xabc);
    EXPECT_EQ(k.width(), 12);
    EXPECT_EQ(evalNode(k).bits(), 0xabcu);
}

TEST_F(ExprEval, ArithmeticWrapsAtWidth)
{
    auto x = b.lit(8, 200) + b.lit(8, 100);
    EXPECT_EQ(evalNode(x).bits(), (200u + 100u) & 0xff);
    auto y = b.lit(8, 3) - b.lit(8, 5);
    EXPECT_EQ(evalNode(y).bits(), 0xfeu);
}

TEST_F(ExprEval, CompareOps)
{
    EXPECT_EQ(evalNode(ult(b.lit(8, 0x80), b.lit(8, 0x01))).bits(), 0u);
    EXPECT_EQ(evalNode(slt(b.lit(8, 0x80), b.lit(8, 0x01))).bits(), 1u);
    EXPECT_EQ(evalNode(eq(b.lit(8, 5), b.lit(8, 5))).bits(), 1u);
    EXPECT_EQ(evalNode(ne(b.lit(8, 5), b.lit(8, 5))).bits(), 0u);
    EXPECT_EQ(evalNode(ule(b.lit(8, 5), b.lit(8, 5))).bits(), 1u);
    EXPECT_EQ(evalNode(sle(b.lit(8, 0xff), b.lit(8, 0))).bits(), 1u);
}

TEST_F(ExprEval, ShiftSemantics)
{
    EXPECT_EQ(evalNode(b.lit(8, 0x81) << b.lit(4, 1)).bits(), 0x02u);
    EXPECT_EQ(evalNode(b.lit(8, 0x81) >> b.lit(4, 1)).bits(), 0x40u);
    EXPECT_EQ(evalNode(ashr(b.lit(8, 0x81), b.lit(4, 1))).bits(), 0xc0u);
    // Oversized shift amounts produce 0 (or sign fill).
    EXPECT_EQ(evalNode(b.lit(8, 0xff) << b.lit(8, 200)).bits(), 0u);
    EXPECT_EQ(evalNode(ashr(b.lit(8, 0x80), b.lit(8, 200))).bits(), 0xffu);
}

TEST_F(ExprEval, ExtractConcatRoundTrip)
{
    auto v = b.lit(16, 0xbeef);
    auto hi = v.bits(15, 8);
    auto lo = v.bits(7, 0);
    EXPECT_EQ(evalNode(hi).bits(), 0xbeu);
    EXPECT_EQ(evalNode(lo).bits(), 0xefu);
    EXPECT_EQ(evalNode(cat(hi, lo)).bits(), 0xbeefu);
}

TEST_F(ExprEval, Extensions)
{
    EXPECT_EQ(evalNode(b.lit(4, 0x9).zext(8)).bits(), 0x09u);
    EXPECT_EQ(evalNode(b.lit(4, 0x9).sext(8)).bits(), 0xf9u);
    EXPECT_EQ(evalNode(b.lit(4, 0x7).sext(8)).bits(), 0x07u);
}

TEST_F(ExprEval, Reductions)
{
    EXPECT_EQ(evalNode(b.lit(4, 0).orR()).bits(), 0u);
    EXPECT_EQ(evalNode(b.lit(4, 2).orR()).bits(), 1u);
    EXPECT_EQ(evalNode(b.lit(4, 0xf).andR()).bits(), 1u);
    EXPECT_EQ(evalNode(b.lit(4, 0xe).andR()).bits(), 0u);
    EXPECT_EQ(evalNode(b.lit(4, 0x3).xorR()).bits(), 0u);
    EXPECT_EQ(evalNode(b.lit(4, 0x7).xorR()).bits(), 1u);
}

TEST_F(ExprEval, IteSelectsBranch)
{
    auto r = b.mux(b.one(), b.lit(8, 0xaa), b.lit(8, 0x55));
    EXPECT_EQ(evalNode(r).bits(), 0xaau);
    auto s = b.mux(b.zero(), b.lit(8, 0xaa), b.lit(8, 0x55));
    EXPECT_EQ(evalNode(s).bits(), 0x55u);
}

TEST_F(ExprEval, SignalReadsEnvironment)
{
    auto in = b.input("in", 8);
    std::vector<Value> env{Value(8, 0x5a)};
    EXPECT_EQ(evalNode(in + b.lit(8, 1), env).bits(), 0x5bu);
}

TEST_F(ExprEval, DeepSharedDagEvaluatesInLinearTime)
{
    // Chain of 200 doubling adds over a shared node; naive recursion would
    // be 2^200 work.
    Node x = b.lit(32, 1);
    for (int i = 0; i < 200; ++i)
        x = x + x;
    EXPECT_EQ(evalNode(x).bits(), 0u); // 2^200 mod 2^32
}

TEST(Design, HashConsingDeduplicates)
{
    Design d("t");
    d.setHashConsing(true);
    ExprRef a = d.constant(8, 5);
    ExprRef b = d.constant(8, 5);
    EXPECT_EQ(a, b);
    int before = d.numExprs();
    (void)d.constant(8, 5);
    EXPECT_EQ(d.numExprs(), before);
}

TEST(Design, NoHashConsingKeepsDuplicates)
{
    Design d("t");
    ExprRef a = d.constant(8, 5);
    ExprRef b = d.constant(8, 5);
    EXPECT_NE(a, b);
}

TEST(Design, DuplicateSignalNameIsFatal)
{
    Design d("t");
    d.addInput("x", 8);
    EXPECT_DEATH(d.addInput("x", 8), "duplicate");
}

TEST(Design, WidthMismatchOnDefineIsFatal)
{
    Design d("t");
    SignalId w = d.addWire("w", 8);
    ExprRef k = d.constant(4, 1);
    EXPECT_DEATH(d.defineWire(w, k), "width mismatch");
}

TEST(Design, CombinationalCycleDetected)
{
    Design d("t");
    SignalId w1 = d.addWire("w1", 1);
    SignalId w2 = d.addWire("w2", 1);
    d.defineWire(w1, d.signalExpr(w2));
    d.defineWire(w2, d.signalExpr(w1));
    EXPECT_DEATH(d.topoWires(), "combinational cycle");
}

TEST(Design, TopoOrderRespectsDependencies)
{
    Design d("t");
    Builder b(d);
    auto in = b.input("in", 8);
    auto w1 = b.wire("w1", in + b.lit(8, 1));
    (void)b.wire("w2", w1 + b.lit(8, 1));
    const auto &topo = d.topoWires();
    // w1 must precede w2.
    auto pos = [&](const std::string &n) {
        for (std::size_t i = 0; i < topo.size(); ++i)
            if (d.signal(topo[i]).name == n)
                return static_cast<int>(i);
        return -1;
    };
    EXPECT_LT(pos("w1"), pos("w2"));
}

TEST(Design, ProcessesRecordAssignments)
{
    Design d("t");
    Builder b(d);
    b.process("decode");
    auto in = b.input("in", 8);
    b.wire("op", in.bits(7, 4).zext(8));
    b.process("execute");
    b.wire("res", in + in);
    ASSERT_EQ(d.numProcesses(), 2);
    EXPECT_EQ(d.processes()[0].name, "decode");
    EXPECT_EQ(d.processes()[0].assigns.size(), 1u);
    EXPECT_EQ(d.processes()[1].assigns.size(), 1u);
}

TEST(Design, CollectSignalsFindsTransitiveReads)
{
    Design d("t");
    Builder b(d);
    auto x = b.input("x", 8);
    auto y = b.input("y", 8);
    (void)b.input("z", 8);
    auto w = b.wire("w", x + y);
    std::vector<bool> seen(d.numSignals(), false);
    d.collectSignals(d.signal(d.signalIdOf("w")).def, seen);
    EXPECT_TRUE(seen[d.signalIdOf("x")]);
    EXPECT_TRUE(seen[d.signalIdOf("y")]);
    EXPECT_FALSE(seen[d.signalIdOf("z")]);
    (void)w;
}

class SimCounter : public ::testing::Test
{
  protected:
    /** An 8-bit counter with enable and synchronous clear. */
    void
    SetUp() override
    {
        Builder b(d);
        auto en = b.input("en", 1);
        auto clr = b.input("clr", 1);
        auto count = b.reg("count", 8, 0);
        auto next = b.mux(clr, b.lit(8, 0),
                          b.mux(en, count + b.lit(8, 1), count));
        b.next(count, next);
        b.wire("msb", count.bit(7));
        b.output("msb");
    }

    Design d{"counter"};
};

TEST_F(SimCounter, ResetState)
{
    Simulator sim(d);
    EXPECT_EQ(sim.peek("count").bits(), 0u);
}

TEST_F(SimCounter, CountsWhenEnabled)
{
    Simulator sim(d);
    sim.setInput("en", 1);
    sim.setInput("clr", 0);
    for (int i = 0; i < 5; ++i)
        sim.step();
    EXPECT_EQ(sim.peek("count").bits(), 5u);
}

TEST_F(SimCounter, HoldsWhenDisabled)
{
    Simulator sim(d);
    sim.setInput("en", 1);
    sim.step();
    sim.setInput("en", 0);
    sim.step();
    sim.step();
    EXPECT_EQ(sim.peek("count").bits(), 1u);
}

TEST_F(SimCounter, ClearDominates)
{
    Simulator sim(d);
    sim.setInput("en", 1);
    sim.step();
    sim.step();
    sim.setInput("clr", 1);
    sim.step();
    EXPECT_EQ(sim.peek("count").bits(), 0u);
}

TEST_F(SimCounter, TwoEvalsPerCycle)
{
    Simulator sim(d);
    std::uint64_t base = sim.evalCount();
    sim.step();
    // step = settle + latch + settle; we count the two settle passes as the
    // paper's two eval() calls.
    EXPECT_EQ(sim.evalCount() - base, 2u);
}

TEST_F(SimCounter, WrapsAt256)
{
    Simulator sim(d);
    sim.setInput("en", 1);
    for (int i = 0; i < 256; ++i)
        sim.step();
    EXPECT_EQ(sim.peek("count").bits(), 0u);
}

TEST_F(SimCounter, ResetRestoresInitialState)
{
    Simulator sim(d);
    sim.setInput("en", 1);
    sim.step();
    sim.reset();
    EXPECT_EQ(sim.peek("count").bits(), 0u);
    EXPECT_EQ(sim.cycle(), 0u);
}

TEST(Sim, RegisterChainDelaysByOneCyclePerStage)
{
    // Non-blocking semantics: a chain r1 <= in, r2 <= r1 must shift, not
    // fall through.
    Design d("chain");
    Builder b(d);
    auto in = b.input("in", 8);
    auto r1 = b.reg("r1", 8, 0);
    auto r2 = b.reg("r2", 8, 0);
    b.next(r1, in);
    b.next(r2, r1);
    Simulator sim(d);
    sim.setInput("in", 0x11);
    sim.step();
    EXPECT_EQ(sim.peek("r1").bits(), 0x11u);
    EXPECT_EQ(sim.peek("r2").bits(), 0x00u);
    sim.setInput("in", 0x22);
    sim.step();
    EXPECT_EQ(sim.peek("r1").bits(), 0x22u);
    EXPECT_EQ(sim.peek("r2").bits(), 0x11u);
}

TEST(Sim, PokeRegisterForcesState)
{
    Design d("t");
    Builder b(d);
    auto r = b.reg("r", 8, 0);
    b.next(r, r);
    Simulator sim(d);
    sim.pokeRegister(d.signalIdOf("r"), 0x7f);
    sim.evalComb();
    EXPECT_EQ(sim.peek("r").bits(), 0x7fu);
    sim.step();
    EXPECT_EQ(sim.peek("r").bits(), 0x7fu);
}

/**
 * Property sweep: RTL operator semantics must agree with reference C++
 * arithmetic for random operands across widths.
 */
class OpSemantics : public ::testing::TestWithParam<int>
{
};

TEST_P(OpSemantics, AgreesWithReference)
{
    const int width = GetParam();
    Design d("t");
    Builder b(d);
    Rng rng(width * 1000003);
    const std::uint64_t mask = widthMask(width);
    for (int trial = 0; trial < 50; ++trial) {
        std::uint64_t xa = rng.next() & mask;
        std::uint64_t xb = rng.next() & mask;
        auto A = b.lit(width, xa);
        auto B = b.lit(width, xb);
        std::vector<Value> env;
        EXPECT_EQ(d.eval((A + B).ref(), env).bits(), (xa + xb) & mask);
        EXPECT_EQ(d.eval((A - B).ref(), env).bits(), (xa - xb) & mask);
        EXPECT_EQ(d.eval((A & B).ref(), env).bits(), xa & xb);
        EXPECT_EQ(d.eval((A | B).ref(), env).bits(), xa | xb);
        EXPECT_EQ(d.eval((A ^ B).ref(), env).bits(), xa ^ xb);
        EXPECT_EQ(d.eval((A * B).ref(), env).bits(), (xa * xb) & mask);
        EXPECT_EQ(d.eval(ult(A, B).ref(), env).bits(),
                  static_cast<std::uint64_t>(xa < xb));
        EXPECT_EQ(d.eval(eq(A, B).ref(), env).bits(),
                  static_cast<std::uint64_t>(xa == xb));
        EXPECT_EQ(d.eval((~A).ref(), env).bits(), ~xa & mask);
        EXPECT_EQ(d.eval((-A).ref(), env).bits(), (~xa + 1) & mask);
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, OpSemantics,
                         ::testing::Values(1, 4, 8, 13, 16, 32, 63, 64));

/** @p env with every wire settled by Design::eval, in topological
 *  order. */
std::vector<Value>
settledEnv(const Design &d, std::vector<Value> env)
{
    for (SignalId w : d.topoWires()) {
        const Signal &s = d.signal(w);
        env[w] = s.def == NoExpr ? Value(s.width, 0) : d.eval(s.def, env);
    }
    return env;
}

/**
 * The reference simulator: settles every wire with Design::eval before
 * and after every latch, with no schedule and no settle skip.
 */
struct ReferenceSim
{
    explicit ReferenceSim(const Design &d) : design(d)
    {
        for (SignalId sig = 0; sig < d.numSignals(); ++sig) {
            const Signal &s = d.signal(sig);
            env.push_back(s.kind == SignalKind::Register
                              ? s.resetValue
                              : Value(s.width, 0));
        }
        settle();
    }

    void
    set(SignalId sig, std::uint64_t bits)
    {
        env[sig] = Value(design.signal(sig).width, bits);
    }

    void settle() { env = settledEnv(design, std::move(env)); }

    void
    step()
    {
        settle();
        std::vector<std::pair<SignalId, Value>> next;
        for (SignalId sig = 0; sig < design.numSignals(); ++sig) {
            const Signal &s = design.signal(sig);
            if (s.kind == SignalKind::Register && s.def != NoExpr)
                next.emplace_back(sig, design.eval(s.def, env));
        }
        for (const auto &[sig, v] : next)
            env[sig] = v;
        settle();
    }

    const Design &design;
    std::vector<Value> env;
};

/** Each processor with every in-scope bug injected at once. */
std::vector<std::pair<std::string, Design>>
buggyCores()
{
    std::vector<std::pair<std::string, Design>> cores;
    for (cpu::Processor proc :
         {cpu::Processor::OR1200, cpu::Processor::Mor1kxEspresso,
          cpu::Processor::PulpinoRi5cy}) {
        cpu::BugConfig bugs;
        for (cpu::BugId bug : cpu::bugsFor(proc, false))
            bugs.set(bug, cpu::BugState::Present);
        switch (proc) {
          case cpu::Processor::OR1200:
            cores.emplace_back("or1200", cpu::or1k::buildOr1200(bugs));
            break;
          case cpu::Processor::Mor1kxEspresso:
            cores.emplace_back("mor1kx", cpu::or1k::buildMor1kx(bugs));
            break;
          case cpu::Processor::PulpinoRi5cy:
            cores.emplace_back("ri5cy", cpu::riscv::buildRi5cy(bugs));
            break;
        }
    }
    return cores;
}

/** Every wire of @p sim equals Design::eval of its definition over the
 *  simulator's own state. */
void
expectWiresSettled(const Design &d, const Simulator &sim,
                   const std::string &ctx)
{
    const std::vector<Value> env = sim.env();
    for (SignalId w : d.topoWires()) {
        const Signal &s = d.signal(w);
        const Value want =
            s.def == NoExpr ? Value(s.width, 0) : d.eval(s.def, env);
        ASSERT_EQ(env[w], want) << ctx << ": wire " << s.name;
    }
}

TEST(SimDifferential, ScheduleMatchesDesignEvalOnBuggyCores)
{
    for (const auto &[name, d] : buggyCores()) {
        std::vector<SignalId> inputs, regs;
        for (SignalId sig = 0; sig < d.numSignals(); ++sig) {
            if (d.signal(sig).kind == SignalKind::Input)
                inputs.push_back(sig);
            if (d.signal(sig).kind == SignalKind::Register)
                regs.push_back(sig);
        }
        Simulator sim(d);
        Rng rng(0x5E77'1E00ull + static_cast<std::uint64_t>(regs.size()));
        for (int cycle = 0; cycle < 120; ++cycle) {
            const std::string ctx = name + " @" + std::to_string(cycle);
            for (SignalId in : inputs) {
                if (rng.flip())
                    sim.setInput(in, rng.next());
            }
            if (rng.below(4) == 0)
                sim.pokeRegister(regs[rng.below(regs.size())], rng.next());
            if (rng.flip()) {
                sim.evalComb();
                expectWiresSettled(d, sim, ctx + " settle");
            }
            // The pre-edge state: the inputs and registers as they stand,
            // wires settled by the reference.
            const std::vector<Value> pre = settledEnv(d, sim.env());
            sim.step();
            for (SignalId r : regs) {
                const Signal &s = d.signal(r);
                const Value want =
                    s.def == NoExpr ? pre[r] : d.eval(s.def, pre);
                ASSERT_EQ(sim.peek(r), want)
                    << ctx << " latch: register " << s.name;
            }
            expectWiresSettled(d, sim, ctx + " step");
        }
    }
}

/** Full-state comparison of a simulator against the reference. */
void
expectMatches(const Design &d, const Simulator &sim, const ReferenceSim &ref,
              const std::string &ctx)
{
    const std::vector<Value> env = sim.env();
    for (SignalId sig = 0; sig < d.numSignals(); ++sig)
        ASSERT_EQ(env[sig], ref.env[sig])
            << ctx << ": signal " << d.signal(sig).name;
}

TEST(SettleSkip, ChangeAfterEvalCombIsSettledBeforeTheLatch)
{
    const Design d = cpu::or1k::buildOr1200();
    const SignalId insn = d.signalIdOf("insn");
    const SignalId rdata = d.signalIdOf("dmem_rdata");
    const SignalId gpr3 = d.signalIdOf("gpr3");
    Simulator sim(d);
    ReferenceSim ref(d);
    Rng rng(0x5E77'1E01ull);
    for (int i = 0; i < 64; ++i) {
        const std::uint64_t word = rng.next();
        sim.setInput(insn, word);
        ref.set(insn, word);
        sim.evalComb();
        // Set after the settle: step() must settle again before it
        // latches, or the registers latch the stale wires.
        const std::uint64_t v = rng.next();
        if (i % 2 == 0) {
            sim.setInput(rdata, v);
            ref.set(rdata, v);
        } else {
            sim.pokeRegister(gpr3, v);
            ref.set(gpr3, v);
        }
        sim.step();
        ref.step();
        expectMatches(d, sim, ref, "cycle " + std::to_string(i));
    }
}

TEST(SettleSkip, CopiedSimulatorSettlesItsOwnInputChange)
{
    // The replay probe: settle, copy, change the copy's read data, and
    // step both.
    const Design d = cpu::or1k::buildOr1200();
    const SignalId insn = d.signalIdOf("insn");
    const SignalId rdata = d.signalIdOf("dmem_rdata");
    Simulator sim(d);
    ReferenceSim ref(d);
    Rng rng(0x5E77'1E02ull);
    for (int i = 0; i < 32; ++i) {
        const std::string ctx = "cycle " + std::to_string(i);
        const std::uint64_t word = rng.next();
        const std::uint64_t data = rng.next();
        sim.setInput(insn, word);
        sim.setInput(rdata, data);
        ref.set(insn, word);
        ref.set(rdata, data);
        sim.evalComb();
        Simulator probe = sim;
        ReferenceSim probe_ref = ref;
        probe.setInput(rdata, ~data);
        probe_ref.set(rdata, ~data);
        probe.step();
        probe_ref.step();
        sim.step();
        ref.step();
        expectMatches(d, probe, probe_ref, ctx + " probe");
        expectMatches(d, sim, ref, ctx);
    }
}

} // namespace
} // namespace coppelia::rtl
