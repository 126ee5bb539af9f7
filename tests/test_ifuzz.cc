/**
 * @file
 * Tests for the coverage-guided instruction fuzzer (src/fuzz): mutator
 * determinism under a fixed seed, coverage-map exactness on a toy design,
 * the zero-cost guarantee of the simulator step hook, the ISS-vs-RTL
 * divergence oracle catching injected Table II bugs (and staying silent
 * on the correct cores), minimization to known trigger lengths, the
 * fuzz campaign job kind, and the concolic hand-off to the BSEE (a fuzz
 * prefix completes a trigger the same engine budget misses from reset).
 */

#include <cstdint>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "bse/engine.hh"
#include "campaign/job.hh"
#include "campaign/spec.hh"
#include "counting_alloc.hh"
#include "cpu/bugs.hh"
#include "cpu/or1k/core.hh"
#include "cpu/or1k/isa.hh"
#include "cpu/riscv/core.hh"
#include "fuzz/coverage.hh"
#include "fuzz/fuzzer.hh"
#include "fuzz/handoff.hh"
#include "fuzz/mutate.hh"
#include "fuzz/oracle.hh"
#include "props/assertion.hh"
#include "rtl/builder.hh"
#include "rtl/sim.hh"
#include "util/rng.hh"

namespace coppelia::fuzz
{
namespace
{

using props::Assertion;
using rtl::Builder;
using rtl::Design;
using rtl::Node;

/** The toy accumulator machine from the BSE tests: acc adds imm on op 1
 *  (cnt counts the adds), clears on op 2. Two control branches. */
Design
toyMachine()
{
    Design d("toy");
    Builder b(d);
    auto op = b.input("op", 2);
    auto imm = b.input("imm", 8);
    auto acc = b.reg("acc", 8, 0);
    auto cnt = b.reg("cnt", 4, 0);
    b.process("exec");
    auto is_add = b.wire("is_add", eq(op, b.lit(2, 1)));
    auto is_clr = b.wire("is_clr", eq(op, b.lit(2, 2)));
    auto sel = b.wire(
        "sel", b.branchMux(is_add, b.lit(2, 1),
                           b.branchMux(is_clr, b.lit(2, 2), b.lit(2, 0))));
    b.next(acc, b.mux(eq(sel, b.lit(2, 1)), acc + imm,
                      b.mux(eq(sel, b.lit(2, 2)), b.lit(8, 0), acc)));
    b.next(cnt, b.mux(eq(sel, b.lit(2, 1)), cnt + b.lit(4, 1), cnt));
    return d;
}

Assertion
toyAssertion(Design &d, const std::string &id, const Node &cond)
{
    Assertion a;
    a.id = id;
    a.description = id;
    a.cond = cond.ref();
    std::vector<bool> seen(d.numSignals(), false);
    d.collectSignals(a.cond, seen);
    for (rtl::SignalId sig = 0; sig < d.numSignals(); ++sig) {
        if (seen[sig])
            a.vars.push_back(sig);
    }
    return a;
}

// ---------------------------------------------------------------------------
// Mutation engine: pure function of the seed.
// ---------------------------------------------------------------------------

TEST(StreamGenerator, DeterministicUnderFixedSeed)
{
    for (cpu::Processor proc :
         {cpu::Processor::OR1200, cpu::Processor::PulpinoRi5cy}) {
        StreamGenerator gen(proc);
        Rng a(42), b(42);
        for (int round = 0; round < 32; ++round) {
            const std::vector<std::uint32_t> sa = gen.randomStream(a, 24);
            const std::vector<std::uint32_t> sb = gen.randomStream(b, 24);
            ASSERT_EQ(sa, sb);
            ASSERT_GE(sa.size(), 1u);
            ASSERT_LE(sa.size(), 24u);
            ASSERT_EQ(gen.mutate(sa, a, 24), gen.mutate(sb, b, 24));
        }
        // A different seed diverges (astronomically unlikely to collide
        // over 32 rounds of up-to-24-word streams).
        Rng c(43);
        bool differs = false;
        Rng a2(42);
        for (int round = 0; round < 32 && !differs; ++round)
            differs = gen.randomStream(a2, 24) != gen.randomStream(c, 24);
        EXPECT_TRUE(differs);
    }
}

TEST(StreamGenerator, SpliceStaysWithinParentsAndBound)
{
    StreamGenerator gen(cpu::Processor::OR1200);
    Rng rng(7);
    const std::vector<std::uint32_t> a = gen.randomStream(rng, 12);
    const std::vector<std::uint32_t> b = gen.randomStream(rng, 12);
    for (int round = 0; round < 64; ++round) {
        const std::vector<std::uint32_t> s = gen.splice(a, b, rng, 16);
        ASSERT_GE(s.size(), 1u);
        ASSERT_LE(s.size(), 16u);
    }
}

// ---------------------------------------------------------------------------
// Coverage map: exact point accounting on the toy design.
// ---------------------------------------------------------------------------

TEST(CoverageMap, ExactPointAccountingOnToyDesign)
{
    Design d = toyMachine();
    // 2 points per register bit (acc 8 + cnt 4 = 12 bits -> 24) plus 2
    // per control branch (is_add, is_clr -> 4).
    CoverageMap cov(d);
    EXPECT_EQ(cov.totalPoints(), 28u);
    EXPECT_EQ(cov.coveredPoints(), 0u);

    rtl::Simulator sim(d);
    sim.reset();
    sim.setObserver(&cov);
    cov.syncState(sim);
    const rtl::SignalId op = d.signalIdOf("op");
    const rtl::SignalId imm = d.signalIdOf("imm");

    // A no-op cycle toggles nothing; only the two branch-false points.
    sim.setInput(op, 0);
    sim.step();
    EXPECT_EQ(cov.coveredPoints(), 2u);
    sim.step();
    EXPECT_EQ(cov.coveredPoints(), 2u); // no new points on repetition

    // One add of 0xff: all 8 acc bits rise, cnt bit 0 rises, and the
    // is_add-true branch point lights up.
    sim.setInput(op, 1);
    sim.setInput(imm, 0xff);
    sim.step();
    EXPECT_EQ(cov.coveredPoints(), 12u);
    // acc is the first register: its bit-b rise point is index 2b.
    EXPECT_TRUE(cov.covered(0));  // acc bit 0 rose
    EXPECT_FALSE(cov.covered(1)); // acc bit 0 never fell
    EXPECT_TRUE(cov.covered(16)); // cnt bit 0 rose (base 2*8)

    // A clear: all 8 acc bits fall, is_clr-true lights up.
    sim.setInput(op, 2);
    sim.step();
    EXPECT_EQ(cov.coveredPoints(), 21u);
    EXPECT_TRUE(cov.covered(1)); // acc bit 0 fell

    // clear() drops hits but keeps the shadow state: an idle cycle after
    // it re-covers only the branch-false points.
    cov.clear();
    EXPECT_EQ(cov.coveredPoints(), 0u);
    sim.setInput(op, 0);
    sim.step();
    EXPECT_EQ(cov.coveredPoints(), 2u);

    sim.setObserver(nullptr);
}

TEST(CoverageMap, SyncStateSuppressesResetJumpToggles)
{
    Design d = toyMachine();
    CoverageMap cov(d);
    rtl::Simulator sim(d);
    sim.reset();
    // Drive acc to a non-zero value, then re-reset WITHOUT syncState: the
    // first observed step would count the stale-shadow jump as toggles.
    sim.setObserver(&cov);
    cov.syncState(sim);
    sim.setInput(d.signalIdOf("op"), 1);
    sim.setInput(d.signalIdOf("imm"), 0xff);
    sim.step();
    const std::size_t after_add = cov.coveredPoints();
    sim.reset();
    cov.clear();
    cov.syncState(sim); // forget the pre-reset register values
    sim.setInput(d.signalIdOf("op"), 0);
    sim.step();
    // Only branch-false points: the 0xff -> 0 reset jump was not counted.
    EXPECT_EQ(cov.coveredPoints(), 2u);
    EXPECT_GT(after_add, 2u);
    sim.setObserver(nullptr);
}

// ---------------------------------------------------------------------------
// Zero-cost hook: the step observer costs nothing when detached, and the
// coverage hot path is allocation-free in steady state.
// ---------------------------------------------------------------------------

/** Observer that counts invocations and nothing else. */
struct CountingObserver final : rtl::StepObserver
{
    int calls = 0;
    void onStep(const rtl::Simulator &) override { ++calls; }
};

TEST(StepObserver, DispatchAndDetach)
{
    Design d = toyMachine();
    rtl::Simulator sim(d);
    sim.reset();
    EXPECT_EQ(sim.observer(), nullptr);
    CountingObserver obs;
    sim.setObserver(&obs);
    sim.step();
    sim.step();
    EXPECT_EQ(obs.calls, 2);
    sim.setObserver(nullptr);
    sim.step();
    EXPECT_EQ(obs.calls, 2);
}

TEST(StepObserver, StepIsAllocationFreeWithNoObserver)
{
    Design d = toyMachine();
    rtl::Simulator sim(d);
    sim.reset();
    const rtl::SignalId op = d.signalIdOf("op");
    const rtl::SignalId imm = d.signalIdOf("imm");
    for (int i = 0; i < 64; ++i) { // warm the evaluator's stack
        sim.setInput(op, i % 3);
        sim.setInput(imm, i * 7);
        sim.step();
    }
    const std::uint64_t before = allocationCount();
    for (int i = 0; i < 256; ++i) {
        sim.setInput(op, i % 3);
        sim.setInput(imm, i * 13);
        sim.step();
    }
    EXPECT_EQ(allocationCount() - before, 0u);
}

TEST(StepObserver, CoverageHotPathIsAllocationFree)
{
    Design d = toyMachine();
    CoverageMap cov(d);
    rtl::Simulator sim(d);
    sim.reset();
    sim.setObserver(&cov);
    cov.syncState(sim);
    const rtl::SignalId op = d.signalIdOf("op");
    const rtl::SignalId imm = d.signalIdOf("imm");
    for (int i = 0; i < 64; ++i) { // warm-up: memo + stack growth
        sim.setInput(op, i % 3);
        sim.setInput(imm, i * 7);
        sim.step();
    }
    const std::uint64_t before = allocationCount();
    for (int i = 0; i < 256; ++i) {
        sim.setInput(op, i % 3);
        sim.setInput(imm, i * 13);
        sim.step();
    }
    EXPECT_EQ(allocationCount() - before, 0u);
    sim.setObserver(nullptr);
}

// ---------------------------------------------------------------------------
// Divergence oracle: catches injected bugs, silent on correct cores.
// ---------------------------------------------------------------------------

TEST(DivergenceOracle, CatchesSeededRegfileBug)
{
    // b24: writes to r0 stick on the buggy core; the golden model keeps
    // r0 hardwired to zero.
    rtl::Design d =
        cpu::or1k::buildOr1200(cpu::BugConfig::with(cpu::BugId::b24));
    DivergenceOracle oracle(d, cpu::Processor::OR1200);
    const auto div = oracle.runStream({cpu::or1k::encAddi(0, 0, 42)});
    ASSERT_TRUE(div.has_value());
    EXPECT_EQ(div->field, "gpr0");
    EXPECT_EQ(div->rtlValue, 42u);
    EXPECT_EQ(div->issValue, 0u);
    EXPECT_EQ(div->cycle, 0);
}

TEST(DivergenceOracle, SilentOnCorrectCoreForKnownTriggers)
{
    rtl::Design d = cpu::or1k::buildOr1200();
    DivergenceOracle oracle(d, cpu::Processor::OR1200);
    using namespace cpu::or1k;
    const std::vector<std::vector<std::uint32_t>> streams = {
        {encAddi(0, 0, 42)},
        {encAddi(2, 0, 5)},
        {encMovhi(16, 0xc000), encSf(SfGtu, 16, 0)},
        {encSb(0, 0, 0x42)},
        {encMtspr(0, 1, SprSr), encSys()},
    };
    for (const auto &s : streams)
        EXPECT_FALSE(oracle.runStream(s).has_value());
}

// ---------------------------------------------------------------------------
// Fuzzer: rediscovers injected Table II bugs on fixed seeds and minimizes
// each divergence to (at most) the known trigger length; finds nothing on
// the bug-free cores; reproduces exactly under a fixed seed.
// ---------------------------------------------------------------------------

struct RediscoveryCase
{
    cpu::Processor processor;
    cpu::BugId bug;
    const char *fieldPrefix; ///< some divergence's field starts with this
    int knownTriggerLen;     ///< length of the known concrete trigger
};

// Print a case as its bug's name. Without this gtest prints the struct's raw
// bytes, fieldPrefix's address among them, and CTest's case names (which
// embed the printed parameter) would change from build to build.
void
PrintTo(const RediscoveryCase &c, std::ostream *os)
{
    *os << cpu::bugName(c.bug);
}

class FuzzerRediscovers : public ::testing::TestWithParam<RediscoveryCase>
{
};

TEST_P(FuzzerRediscovers, InjectedBugOnFixedSeed)
{
    const RediscoveryCase &c = GetParam();
    rtl::Design d =
        c.processor == cpu::Processor::PulpinoRi5cy
            ? cpu::riscv::buildRi5cy(cpu::BugConfig::with(c.bug))
            : cpu::or1k::buildOr1200(cpu::BugConfig::with(c.bug));
    FuzzOptions opts;
    opts.seed = 7;
    opts.maxExecs = 2000;
    opts.maxStreamLen = 12;
    Fuzzer fuzzer(d, c.processor, opts);
    const FuzzResult r = fuzzer.run();
    ASSERT_GE(r.divergences.size(), 1u) << cpu::bugName(c.bug);
    EXPECT_GT(r.coveragePoints, 0u);
    EXPECT_GT(r.corpusSize, 0);
    int best_len = -1;
    for (const FuzzDivergence &fd : r.divergences) {
        // The minimizer never grows a stream, and every recorded stream
        // replays to a divergence.
        EXPECT_LE(static_cast<int>(fd.stream.size()), fd.rawLength);
        EXPECT_TRUE(fuzzer.oracle().runStream(fd.stream).has_value());
        if (fd.divergence.field.rfind(c.fieldPrefix, 0) == 0 &&
            (best_len < 0 ||
             static_cast<int>(fd.stream.size()) < best_len))
            best_len = static_cast<int>(fd.stream.size());
    }
    ASSERT_GE(best_len, 1) << cpu::bugName(c.bug)
                           << ": no divergence on a field starting with "
                           << c.fieldPrefix;
    // The shortest minimized stream for this bug reaches the known
    // concrete trigger length.
    EXPECT_LE(best_len, c.knownTriggerLen) << cpu::bugName(c.bug);
}

INSTANTIATE_TEST_SUITE_P(
    TableIIBugs, FuzzerRediscovers,
    ::testing::Values(
        RediscoveryCase{cpu::Processor::OR1200, cpu::BugId::b04,
                        "gpr", 1},
        RediscoveryCase{cpu::Processor::OR1200, cpu::BugId::b20,
                        "sr", 2},
        RediscoveryCase{cpu::Processor::OR1200, cpu::BugId::b24,
                        "gpr0", 1},
        RediscoveryCase{cpu::Processor::OR1200, cpu::BugId::b28,
                        "store_be", 1}));

TEST(Fuzzer, NoDivergenceOnBugFreeCore)
{
    for (cpu::Processor proc :
         {cpu::Processor::OR1200, cpu::Processor::PulpinoRi5cy}) {
        rtl::Design d = proc == cpu::Processor::PulpinoRi5cy
                            ? cpu::riscv::buildRi5cy()
                            : cpu::or1k::buildOr1200();
        FuzzOptions opts;
        opts.seed = 11;
        opts.maxExecs = 300;
        Fuzzer fuzzer(d, proc, opts);
        const FuzzResult r = fuzzer.run();
        EXPECT_EQ(r.divergences.size(), 0u);
        EXPECT_GT(r.coveragePoints, 0u);
        EXPECT_EQ(r.coverageTotal, fuzzer.coverage().totalPoints());
    }
}

TEST(Fuzzer, RunsReproduceExactlyUnderAFixedSeed)
{
    rtl::Design d =
        cpu::or1k::buildOr1200(cpu::BugConfig::with(cpu::BugId::b04));
    FuzzOptions opts;
    opts.seed = 99;
    opts.maxExecs = 150;
    auto run = [&] {
        Fuzzer fuzzer(d, cpu::Processor::OR1200, opts);
        FuzzResult r = fuzzer.run();
        return std::make_tuple(r.execs, r.instructions, r.corpusSize,
                               r.coveragePoints, r.divergences.size());
    };
    const auto a = run();
    const auto b = run();
    EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// Campaign integration: the fuzz job kind produces a completed record.
// ---------------------------------------------------------------------------

TEST(FuzzJob, RunsThroughTheCampaignRunner)
{
    campaign::CampaignSpec spec;
    spec.fuzzExecs = 150;
    spec.fuzzMaxStream = 8;
    spec.fuzzHandoffs = 0; // keep the unit test solver-free
    campaign::JobSpec job;
    job.kind = campaign::JobKind::Fuzz;
    job.processor = cpu::Processor::OR1200;
    job.bug = cpu::BugId::b24;
    const campaign::JobResult r = campaign::runJob(spec, job, 7);
    EXPECT_EQ(r.status, campaign::JobStatus::Completed);
    EXPECT_GT(r.fuzzExecs, 0);
    EXPECT_GT(r.fuzzInstructions, 0u);
    EXPECT_GT(r.fuzzCoveragePoints, 0u);
    EXPECT_GT(r.fuzzCoverageTotal, r.fuzzCoveragePoints);
    if (r.found) {
        EXPECT_TRUE(r.replayable);
        ASSERT_GE(r.fuzzStreams.size(), 1u);
        EXPECT_GE(r.triggerInstructions, 1);
    }
}

// ---------------------------------------------------------------------------
// Concolic hand-off: Options::initialState replaces the architectural
// reset state for the search, and the bridge turns a fuzzed prefix into a
// full trigger the same BSEE budget cannot reach from reset.
// ---------------------------------------------------------------------------

TEST(ConcolicHandoff, InitialStateReplacesResetForTheSearch)
{
    Design d = toyMachine();
    Builder b(d);
    // cnt == 2 needs two adds from reset; a bound-1 search misses it.
    Assertion a = toyAssertion(d, "cnt_not_2",
                               ne(b.read("cnt"), b.lit(4, 2)));
    bse::Options opts;
    opts.bound = 1;
    {
        bse::BackwardEngine engine(d, opts);
        EXPECT_FALSE(engine.buildTrigger(a).found());
    }
    // From a snapshot with cnt already 1, one more add closes it.
    opts.initialState[d.signalIdOf("cnt")] = 1;
    bse::BackwardEngine engine(d, opts);
    const bse::TriggerResult r = engine.buildTrigger(a);
    ASSERT_TRUE(r.found());
    EXPECT_EQ(r.cycles.size(), 1u);
}

TEST(ConcolicHandoff, FuzzPrefixCompletesWhatResetBudgetMisses)
{
    // b11: a syscall from user mode leaves the core in user mode. The
    // violation needs SM=0 first, so a bound-1 search from reset (SM=1)
    // cannot fire the assertion — but the same bound-1 budget closes it
    // from the state a one-instruction fuzzed prefix reaches.
    rtl::Design d =
        cpu::or1k::buildOr1200(cpu::BugConfig::with(cpu::BugId::b11));
    std::vector<Assertion> asserts = cpu::or1k::or1200Assertions(d);
    const Assertion &a = props::findAssertion(asserts, "a11_exc_sm");

    bse::Options reset_opts;
    reset_opts.bound = 1;
    reset_opts.timeLimitSeconds = 60.0;
    bse::BackwardEngine engine(d, reset_opts);
    EXPECT_FALSE(engine.buildTrigger(a).found());

    ConcolicBridge bridge(d, cpu::Processor::OR1200, a);
    EXPECT_FALSE(bridge.coneRegisters().empty());
    const std::vector<std::uint32_t> prefix = {
        cpu::or1k::encMtspr(0, 1, cpu::or1k::SprSr)}; // drop to user mode
    EXPECT_GE(bridge.proximity(bridge.stateAfter(prefix)), 1);

    HandoffOptions hopts;
    hopts.bound = 1;
    hopts.timeLimitSeconds = 60.0;
    const HandoffOutcome out = bridge.attempt(prefix, hopts);
    EXPECT_TRUE(out.attempted);
    ASSERT_TRUE(out.fired) << "engine outcome "
                           << static_cast<int>(out.engineOutcome);
    ASSERT_EQ(out.suffix.size(), 1u);
    EXPECT_EQ(out.prefix, prefix);

    // The combined stream is a concrete, replayable trigger from reset.
    exploit::CoreSystem sys(d);
    bool violated = false;
    for (std::uint32_t insn : {out.prefix[0], out.suffix[0]}) {
        sys.stepWithInsn(insn);
        violated = violated || !sys.holds(a);
    }
    EXPECT_TRUE(violated);
}

TEST(ConcolicHandoff, BelowProximityThresholdIsNotAttempted)
{
    rtl::Design d =
        cpu::or1k::buildOr1200(cpu::BugConfig::with(cpu::BugId::b11));
    std::vector<Assertion> asserts = cpu::or1k::or1200Assertions(d);
    const Assertion &a = props::findAssertion(asserts, "a11_exc_sm");
    ConcolicBridge bridge(d, cpu::Processor::OR1200, a);
    HandoffOptions hopts;
    hopts.minProximity = 1000000; // unreachable threshold
    const HandoffOutcome out = bridge.attempt({cpu::or1k::encNop()}, hopts);
    EXPECT_FALSE(out.attempted);
    EXPECT_FALSE(out.fired);
}

} // namespace
} // namespace coppelia::fuzz
