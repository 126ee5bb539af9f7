/**
 * @file
 * Cross-module integration tests: the HDL frontend feeding the backward
 * engine end-to-end (the quickstart pipeline), optimization passes
 * preserving OR1200 semantics under random instruction streams,
 * data-section resolution for triggers, and the emitted exploit source
 * structure.
 */

#include <gtest/gtest.h>

#include "bse/engine.hh"
#include "core/coppelia.hh"
#include "cpu/bugs.hh"
#include "cpu/or1k/core.hh"
#include "cpu/or1k/isa.hh"
#include "exploit/replay.hh"
#include "exploit/system.hh"
#include "hdl/hdl.hh"
#include "rtl/builder.hh"
#include "rtl/passes/passes.hh"
#include "rtl/sim.hh"
#include "util/rng.hh"

namespace coppelia
{
namespace
{

TEST(Integration, HdlToBackwardEngineEndToEnd)
{
    // The quickstart flow: parse mini-Verilog, assert, search backward,
    // replay. The key-check bug escalates privilege in two cycles (arm
    // then fire).
    rtl::Design d = hdl::parseVerilog(R"(
module gate(clk, go, code, armed_out, fired);
  input clk;
  input go;
  input [7:0] code;
  output armed_out, fired;
  reg armed = 0;
  reg fire = 0;
  assign armed_out = armed;
  assign fired = fire;
  always @(posedge clk) begin
    if (go) begin
      if (code == 8'h42)
        armed <= 1'b1;
      else if (armed)
        fire <= 1'b1;
    end
  end
endmodule
)");
    rtl::Builder b(d);
    props::Assertion a;
    a.id = "never_fires";
    a.cond = (~b.read("fire")).ref();
    std::vector<bool> seen(d.numSignals(), false);
    d.collectSignals(a.cond, seen);
    for (rtl::SignalId s = 0; s < d.numSignals(); ++s) {
        if (seen[s])
            a.vars.push_back(s);
    }

    bse::BackwardEngine engine(d);
    bse::TriggerResult r = engine.buildTrigger(a);
    ASSERT_EQ(r.outcome, bse::Outcome::Found);
    // At least two cycles (arm with 0x42, then fire); the search may
    // route through an extra idle cycle.
    EXPECT_GE(r.cycles.size(), 2u);
    EXPECT_LE(r.cycles.size(), 4u);

    rtl::Simulator sim(d);
    bool fired = false;
    for (const auto &cycle : r.cycles) {
        for (const auto &[sig, v] : cycle.inputs)
            sim.setInput(sig, v);
        sim.step();
        fired = fired || !props::holds(d, a, sim.env());
    }
    EXPECT_TRUE(fired);
}

TEST(Integration, OptimizedOr1200MatchesUnoptimized)
{
    // The pass pipeline must preserve the full core's semantics: lockstep
    // random-instruction comparison between -O0 and -O3 analogs.
    rtl::Design d = cpu::or1k::buildOr1200();
    auto asserts = cpu::or1k::or1200Assertions(d);
    std::vector<rtl::SignalId> keep;
    for (const auto &a : asserts)
        keep.insert(keep.end(), a.vars.begin(), a.vars.end());
    rtl::Design opt = rtl::optimizeDesign(d, rtl::PassOptions{}, keep);

    exploit::CoreSystem s0(d), s1(opt);
    Rng rng(4242);
    const auto &ops = cpu::or1k::legalOpcodes();
    for (int cycle = 0; cycle < 200; ++cycle) {
        const std::uint32_t op = ops[rng.below(ops.size())];
        const std::uint32_t insn =
            (op << 26) |
            (static_cast<std::uint32_t>(rng.next()) & 0x3ffffff);
        s0.stepWithInsn(insn);
        s1.stepWithInsn(insn);
        for (const char *sig : {"pc", "sr", "esr", "epcr", "eear",
                                "gpr1", "gpr9", "gpr31"}) {
            ASSERT_EQ(s0.peek(sig).bits(), s1.peek(sig).bits())
                << sig << " cycle " << cycle;
        }
    }
}

TEST(Integration, DataSectionResolution)
{
    // A trigger whose load assumes memory contents gets a data section;
    // contradictory assumptions for the same word are rejected.
    rtl::Design d = cpu::or1k::buildOr1200();
    const rtl::SignalId insn = d.signalIdOf("insn");
    const rtl::SignalId rdata = d.signalIdOf("dmem_rdata");
    const rtl::SignalId intr = d.signalIdOf("intr");

    auto cycle = [&](std::uint32_t i, std::uint32_t rd) {
        bse::TriggerCycle c;
        c.inputs[insn] = i;
        c.inputs[rdata] = rd;
        c.inputs[intr] = 0;
        return c;
    };

    using namespace cpu::or1k;
    // Load from [0x40] expecting 0x1234; non-load cycles ignore the bus.
    std::vector<bse::TriggerCycle> ok{
        cycle(encAddi(1, 0, 0x40), 0xdead /*ignored*/),
        cycle(encLwz(2, 1, 0), 0x1234),
    };
    auto ds = exploit::resolveTriggerDataSection(d, ok);
    ASSERT_TRUE(ds.has_value());
    ASSERT_EQ(ds->size(), 1u);
    EXPECT_EQ((*ds)[0].first, 0x40u);
    EXPECT_EQ((*ds)[0].second, 0x1234u);

    // Two loads from the same word with different expectations conflict.
    std::vector<bse::TriggerCycle> bad{
        cycle(encLwz(2, 0, 0x40), 0x1111),
        cycle(encLwz(3, 0, 0x40), 0x2222),
    };
    EXPECT_FALSE(exploit::resolveTriggerDataSection(d, bad).has_value());
}

TEST(Integration, EmittedSourceHasListing2Shape)
{
    rtl::Design d =
        cpu::or1k::buildOr1200(cpu::BugConfig::with(cpu::BugId::b30));
    auto asserts = cpu::or1k::or1200Assertions(d);
    const props::Assertion &a30 =
        props::findAssertion(asserts, "a30_lbs_sext");

    core::CoppeliaOptions opts;
    opts.engine.bound = 4;
    opts.engine.timeLimitSeconds = 60;
    const rtl::Design *dp = &d;
    opts.engine.preconditions =
        [dp](smt::TermManager &tm,
             const sym::BoundState &bs) -> std::vector<smt::TermRef> {
        std::vector<smt::TermRef> out =
            cpu::or1k::stateAssumptions(tm, *dp, bs.regVars);
        for (const auto &[sig, var] : bs.inputVars) {
            (void)sig;
            if (tm.varWidth(tm.term(var).varId) == 32)
                out.push_back(cpu::or1k::legalInsnConstraint(tm, var));
        }
        return out;
    };
    core::Coppelia tool(d, cpu::Processor::OR1200, opts);
    core::ExploitResult res = tool.generateExploit(a30);
    ASSERT_TRUE(res.found());
    ASSERT_TRUE(res.exploit.has_value());
    EXPECT_TRUE(res.replayable());

    const std::string &src = res.exploit->cSource;
    // b30 loads a sign-bit byte: the exploit must carry a data section.
    EXPECT_NE(src.find("setup_data"), std::string::npos);
    EXPECT_NE(src.find("asm volatile"), std::string::npos);
    EXPECT_NE(src.find("l.lbs"), std::string::npos);
    EXPECT_NE(src.find("payload();"), std::string::npos);
}

TEST(Integration, StateAssumptionsHoldOnReachableStates)
{
    // The assume-properties fed to the engine must be *invariants*: no
    // reachable state of the correct core may violate them. Random-walk
    // check.
    rtl::Design d = cpu::or1k::buildOr1200();
    exploit::CoreSystem sys(d);
    Rng rng(777);
    const auto &ops = cpu::or1k::legalOpcodes();

    smt::TermManager tm;
    sym::BoundState bs;
    std::unordered_map<rtl::SignalId, smt::TermRef> reg_vars;
    for (rtl::SignalId s = 0; s < d.numSignals(); ++s) {
        if (d.signal(s).kind == rtl::SignalKind::Register) {
            reg_vars[s] =
                tm.mkVar(d.signal(s).name, d.signal(s).width);
        }
    }
    auto assumptions = cpu::or1k::stateAssumptions(tm, d, reg_vars);
    ASSERT_FALSE(assumptions.empty());

    for (int cycle = 0; cycle < 300; ++cycle) {
        const std::uint32_t op = ops[rng.below(ops.size())];
        sys.stepWithInsn(
            (op << 26) |
            (static_cast<std::uint32_t>(rng.next()) & 0x3ffffff));
        smt::Model m;
        for (const auto &[sig, var] : reg_vars)
            m.set(tm.term(var).varId, sys.sim().peek(sig).bits());
        for (smt::TermRef inv : assumptions)
            ASSERT_EQ(tm.eval(inv, m), 1u) << "cycle " << cycle;
    }
}

} // namespace
} // namespace coppelia
