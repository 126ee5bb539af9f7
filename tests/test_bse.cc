/**
 * @file
 * Tests for the backward symbolic execution engine: trigger generation on
 * a toy accumulator machine (single- and multi-cycle triggers, outcome
 * classification, search-mode and solver-backend ablations, the cone
 * restriction), the depth-1 refutation on a four-register machine,
 * replayability of every generated trigger on the concrete simulator,
 * and integration runs on the OR1200 core for single-instruction bugs.
 */

#include <gtest/gtest.h>

#include "bse/engine.hh"
#include "core/coppelia.hh"
#include "cpu/bugs.hh"
#include "cpu/or1k/core.hh"
#include "cpu/or1k/isa.hh"
#include "rtl/builder.hh"
#include "rtl/sim.hh"

namespace coppelia::bse
{
namespace
{

using props::Assertion;
using rtl::Builder;
using rtl::Design;
using rtl::Node;

/**
 * Replay a generated trigger by driving all inputs concretely from reset;
 * true when the assertion is violated at some cycle boundary. This is the
 * soundness check behind the paper's "replayable on an FPGA board" column.
 */
bool
replayTrigger(const Design &d, const Assertion &a,
              const std::vector<TriggerCycle> &cycles)
{
    rtl::Simulator sim(d);
    for (const TriggerCycle &cycle : cycles) {
        for (const auto &[sig, value] : cycle.inputs)
            sim.setInput(sig, value);
        sim.step();
        if (!props::holds(d, a, sim.env()))
            return true;
    }
    return false;
}

/**
 * Toy machine: acc accumulates the immediate on op 1 (cnt counts the
 * adds), clears on op 2.
 */
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

class ToyBse : public ::testing::Test
{
  protected:
    Design d = toyMachine();
    Builder b{d};
};

TEST_F(ToyBse, SingleCycleTrigger)
{
    // acc must never be 0x2a; reachable in one add from reset.
    Assertion a = toyAssertion(
        d, "acc_not_42", ne(b.read("acc"), b.lit(8, 0x2a)));
    BackwardEngine engine(d);
    TriggerResult r = engine.buildTrigger(a);
    ASSERT_EQ(r.outcome, Outcome::Found);
    EXPECT_EQ(r.cycles.size(), 1u);
    EXPECT_TRUE(replayTrigger(d, a, r.cycles));
}

TEST_F(ToyBse, TwoCycleTriggerViaStitching)
{
    // cnt==2 needs two add instructions: the engine must stitch cycles.
    Assertion a = toyAssertion(
        d, "cnt_not_2", ne(b.read("cnt"), b.lit(4, 2)));
    BackwardEngine engine(d);
    TriggerResult r = engine.buildTrigger(a);
    ASSERT_EQ(r.outcome, Outcome::Found);
    EXPECT_EQ(r.cycles.size(), 2u);
    EXPECT_GE(r.iterations, 2);
    EXPECT_TRUE(replayTrigger(d, a, r.cycles));
}

TEST_F(ToyBse, ThreeCycleJointCondition)
{
    // cnt==2 AND acc==0: two adds whose immediates cancel (mod 256), or
    // adds plus a clear — at least three constraints deep in the search.
    Assertion a = toyAssertion(
        d, "no_cnt2_acc0",
        ~(eq(b.read("cnt"), b.lit(4, 2)) &
          eq(b.read("acc"), b.lit(8, 0))));
    BackwardEngine engine(d);
    TriggerResult r = engine.buildTrigger(a);
    ASSERT_EQ(r.outcome, Outcome::Found);
    EXPECT_GE(r.cycles.size(), 2u);
    EXPECT_TRUE(replayTrigger(d, a, r.cycles));
}

TEST_F(ToyBse, NoViolationOnValidProperty)
{
    // acc==acc is vacuously safe; BSEE must report no violation.
    Assertion a = toyAssertion(
        d, "tautology", eq(b.read("acc"), b.read("acc")));
    BackwardEngine engine(d);
    TriggerResult r = engine.buildTrigger(a);
    EXPECT_EQ(r.outcome, Outcome::NoViolation);
}

TEST_F(ToyBse, BoundExceededOnDeepTarget)
{
    // cnt==7 needs 7 adds; bound 3 must give up with the right outcome.
    Assertion a = toyAssertion(
        d, "cnt_not_7", ne(b.read("cnt"), b.lit(4, 7)));
    Options opts;
    opts.bound = 3;
    BackwardEngine engine(d, opts);
    TriggerResult r = engine.buildTrigger(a);
    EXPECT_EQ(r.outcome, Outcome::BoundExceeded);
}

TEST_F(ToyBse, AllSearchModesFind)
{
    for (auto mode : {sym::SearchMode::BFS, sym::SearchMode::DFS,
                      sym::SearchMode::Random, sym::SearchMode::Hybrid}) {
        Assertion a = toyAssertion(
            d, std::string("m_") + sym::searchModeName(mode),
            ne(b.read("cnt"), b.lit(4, 2)));
        Options opts;
        opts.explorer.search = mode;
        BackwardEngine engine(d, opts);
        TriggerResult r = engine.buildTrigger(a);
        EXPECT_EQ(r.outcome, Outcome::Found)
            << sym::searchModeName(mode);
        EXPECT_TRUE(replayTrigger(d, a, r.cycles))
            << sym::searchModeName(mode);
    }
}

TEST_F(ToyBse, IncrementalAndFreshSolversAgreeOnTriggers)
{
    // The incremental backend must not change what the engine produces:
    // same outcome, and the generated triggers replay identically.
    std::vector<TriggerResult> results;
    for (bool incremental : {true, false}) {
        Assertion a = toyAssertion(
            d, incremental ? "cnt2_inc" : "cnt2_fresh",
            ne(b.read("cnt"), b.lit(4, 2)));
        Options opts;
        opts.incrementalSolver = incremental;
        BackwardEngine engine(d, opts);
        results.push_back(engine.buildTrigger(a));
        ASSERT_EQ(results.back().outcome, Outcome::Found)
            << (incremental ? "incremental" : "fresh");
        EXPECT_TRUE(replayTrigger(d, a, results.back().cycles))
            << (incremental ? "incremental" : "fresh");
    }
    ASSERT_EQ(results[0].cycles.size(), results[1].cycles.size());
    for (std::size_t i = 0; i < results[0].cycles.size(); ++i)
        EXPECT_EQ(results[0].cycles[i].inputs, results[1].cycles[i].inputs)
            << "cycle " << i;
    // Only the incremental run reports backend reuse.
    EXPECT_GT(results[0].stats.get("solver_incremental_queries"), 0u);
    EXPECT_EQ(results[1].stats.get("solver_incremental_queries"), 0u);
}

TEST_F(ToyBse, PatienceFallbackRestartsOnFreshBackend)
{
    // Patience 1 forces the incremental attempt to concede on a search
    // that needs two stitching iterations; the engine must transparently
    // rerun on the fresh backend and still produce a replayable trigger.
    Assertion a = toyAssertion(
        d, "cnt2_fallback", ne(b.read("cnt"), b.lit(4, 2)));
    Options opts;
    opts.incrementalPatienceIterations = 1;
    BackwardEngine engine(d, opts);
    TriggerResult r = engine.buildTrigger(a);
    ASSERT_EQ(r.outcome, Outcome::Found);
    EXPECT_EQ(r.cycles.size(), 2u);
    EXPECT_TRUE(replayTrigger(d, a, r.cycles));
    EXPECT_EQ(r.stats.get("incremental_fallbacks"), 1u);
    EXPECT_GE(r.stats.get("incremental_patience_exhausted"), 1u);
    // Merged stats still carry the incremental attempt's work.
    EXPECT_GT(r.stats.get("solver_incremental_queries"), 0u);
}

/**
 * An arithmetic tautology the simplifier cannot fold: 3*acc and
 * acc+acc+acc are distinct terms (operand canonicalization does not
 * cross operators), so refuting the negation takes real SAT conflicts.
 */
Node
mul3Miter(Builder &b)
{
    return eq(b.read("acc") * b.lit(8, 3),
              (b.read("acc") + b.read("acc")) + b.read("acc"));
}

TEST_F(ToyBse, UnlimitedBudgetProvesMiterSafe)
{
    Assertion a = toyAssertion(d, "mul3_safe", mul3Miter(b));
    BackwardEngine engine(d);
    TriggerResult r = engine.buildTrigger(a);
    EXPECT_EQ(r.outcome, Outcome::NoViolation);
    EXPECT_FALSE(r.solverIncomplete);
}

TEST_F(ToyBse, SolverUnknownReportsIncompleteNotNoViolation)
{
    // Regression for the Unknown/Unsat conflation bug: with a conflict
    // budget too small to refute the miter, every violation query comes
    // back Unknown. The engine must NOT claim "no violation exists" — it
    // pruned branches it never refuted — and must surface the
    // incompleteness for the campaign retry logic.
    Assertion a = toyAssertion(d, "mul3_budget", mul3Miter(b));
    Options opts;
    opts.solverConflictBudget = 1;
    BackwardEngine engine(d, opts);
    TriggerResult r = engine.buildTrigger(a);
    EXPECT_NE(r.outcome, Outcome::Found);
    EXPECT_NE(r.outcome, Outcome::NoViolation);
    EXPECT_TRUE(r.solverIncomplete);
    EXPECT_GE(r.stats.get("solver_unknowns"), 1u);
    EXPECT_GE(r.stats.get("solver_unknowns_final"), 1u);
}

TEST_F(ToyBse, GenerateExploitRetriesFlippedPinAfterDepthOneCandidate)
{
    // cnt==7 past bound 3: the first search stitches depth-1 candidates
    // and fails, so generateExploit's retry with pinAssertionState
    // flipped still runs, and its iterations add to the first search's.
    Assertion a = toyAssertion(
        d, "cnt_not_7_retry", ne(b.read("cnt"), b.lit(4, 7)));
    core::CoppeliaOptions opts;
    opts.engine.bound = 3;
    core::Coppelia tool(d, cpu::Processor::OR1200, opts);
    core::ExploitResult res = tool.generateExploit(a);
    EXPECT_EQ(res.outcome, Outcome::BoundExceeded);

    Options flipped = opts.engine;
    flipped.pinAssertionState = !flipped.pinAssertionState;
    const TriggerResult first = BackwardEngine(d, opts.engine).buildTrigger(a);
    const TriggerResult second = BackwardEngine(d, flipped).buildTrigger(a);
    EXPECT_GT(first.iterations, 1);
    EXPECT_EQ(res.iterations, first.iterations + second.iterations);
}

/**
 * Four registers, all in the cone of an assertion over w, so the Eq. 1
 * schedule has two bounds (1, then 4/4 + 1 = 2). Op 1 loads y, op 2
 * loads z, op 0 loads x, and op 3 writes y & z & ~x into w, which every
 * other op clears.
 */
Design
quadMachine()
{
    Design d("quad");
    Builder b(d);
    auto op = b.input("op", 2);
    auto imm = b.input("imm", 4);
    auto w = b.reg("w", 4, 0);
    auto x = b.reg("x", 4, 0);
    auto y = b.reg("y", 4, 0);
    auto z = b.reg("z", 4, 0);
    b.process("exec");
    auto sel = b.wire("sel", b.select(op,
                                      {{1, b.lit(2, 1)},
                                       {2, b.lit(2, 2)},
                                       {3, b.lit(2, 3)}},
                                      b.lit(2, 0)));
    b.next(y, b.mux(eq(sel, b.lit(2, 1)), imm, y));
    b.next(z, b.mux(eq(sel, b.lit(2, 2)), imm, z));
    b.next(x, b.mux(eq(sel, b.lit(2, 0)), imm, x));
    b.next(w, b.mux(eq(sel, b.lit(2, 3)), y & z & ~x, b.lit(4, 0)));
    return d;
}

class QuadBse : public ::testing::Test
{
  protected:
    Design d = quadMachine();
    Builder b{d};

    /** w & x == 0 holds after any step from any state. */
    Assertion
    validAssertion(const std::string &id)
    {
        return toyAssertion(
            d, id, eq(b.read("w") & b.read("x"), b.lit(4, 0)));
    }
};

TEST_F(QuadBse, ValidPropertyIsRefutedAfterOneExploration)
{
    Assertion a = validAssertion("w_and_x_zero");
    BackwardEngine engine(d);
    ASSERT_EQ(engine.symbolicRegisters(a).size(), 4u);
    TriggerResult r = engine.buildTrigger(a);
    EXPECT_EQ(r.outcome, Outcome::NoViolation);
    EXPECT_FALSE(r.solverIncomplete);
    EXPECT_EQ(r.iterations, 1);
    // Bound 1 was explored; the refutation closed bound 2 without one.
    EXPECT_EQ(r.stats.get("completed_explorations"), 1u);
    EXPECT_EQ(r.stats.get("level1_refutations"), 1u);
}

TEST_F(QuadBse, TwoRegisterPredecessorSurvivesRefutation)
{
    // w == 15 needs y == z == 15 before op 3: two registers away from
    // reset, so bound 1 comes back empty and the refutation is Sat.
    Assertion a = toyAssertion(
        d, "w_not_15", ne(b.read("w"), b.lit(4, 15)));
    BackwardEngine engine(d);
    TriggerResult r = engine.buildTrigger(a);
    ASSERT_EQ(r.outcome, Outcome::Found);
    EXPECT_EQ(r.stats.get("level1_refutations"), 0u);
    EXPECT_EQ(r.cycles.size(), 3u);
    EXPECT_TRUE(replayTrigger(d, a, r.cycles));
}

TEST_F(QuadBse, UnknownRefutationContinuesSchedule)
{
    // The property is valid, so its refutation is never Sat. One
    // conflict is too few to refute it in one query, while every leaf
    // query is decided within the budget and its 4x retry: the Unknown
    // refutation leaves the schedule to explore bound 2, and the search
    // still ends with a complete NoViolation.
    Assertion a = validAssertion("w_and_x_zero_budget");
    Options opts;
    opts.solverConflictBudget = 1;
    BackwardEngine engine(d, opts);
    TriggerResult r = engine.buildTrigger(a);
    EXPECT_EQ(r.outcome, Outcome::NoViolation);
    EXPECT_FALSE(r.solverIncomplete);
    EXPECT_EQ(r.stats.get("solver_unknowns_final"), 0u);
    EXPECT_EQ(r.stats.get("level1_refutations"), 0u);
    EXPECT_EQ(r.stats.get("completed_explorations"), 2u);
}

TEST_F(QuadBse, TruncatedExplorationIsNotNoViolation)
{
    // One leaf per exploration reaches only op 1's path; only op 3's
    // path can make w == 15. A level cut short by the leaf limit must
    // not report that no violation exists.
    Assertion a = toyAssertion(
        d, "w_not_15_truncated", ne(b.read("w"), b.lit(4, 15)));
    Options opts;
    opts.explorer.maxLeaves = 1;
    BackwardEngine engine(d, opts);
    TriggerResult r = engine.buildTrigger(a);
    EXPECT_EQ(r.outcome, Outcome::BudgetExhausted);
    EXPECT_GE(r.stats.get("stopped_max_leaves"), 1u);
}

TEST_F(ToyBse, ConeRestrictionShrinksSymbolicState)
{
    // An assertion over cnt alone needs only cnt symbolic.
    Assertion a = toyAssertion(
        d, "cnt_cone", ne(b.read("cnt"), b.lit(4, 2)));
    BackwardEngine engine(d);
    EXPECT_EQ(engine.symbolicRegisters(a).size(), 1u);
}

// ---------------------------------------------------------------------------
// OR1200 integration: the engine generates replayable triggers for real
// single- and two-instruction bugs.
// ---------------------------------------------------------------------------

Options
or1200Options()
{
    Options opts;
    opts.bound = 4;
    opts.preconditions = [](smt::TermManager &tm,
                            const sym::BoundState &bs)
        -> std::vector<smt::TermRef> {
        for (const auto &[sig, var] : bs.inputVars) {
            (void)sig;
            if (tm.varWidth(tm.term(var).varId) == 32)
                return {cpu::or1k::legalInsnConstraint(tm, var)};
        }
        return {};
    };
    return opts;
}

struct Or1200BseCase
{
    cpu::BugId bug;
    const char *assertId;
    std::size_t maxLen;
};

// Print a case as its bug's name. Without this gtest prints the struct's raw
// bytes, uninitialised padding and assertId's address among them, and
// CTest's case names (which embed the printed parameter) would change from
// run to run.
void
PrintTo(const Or1200BseCase &c, std::ostream *os)
{
    *os << cpu::bugName(c.bug);
}

class Or1200Bse : public ::testing::TestWithParam<Or1200BseCase>
{
};

TEST_P(Or1200Bse, GeneratesReplayableTrigger)
{
    const Or1200BseCase &c = GetParam();
    rtl::Design d =
        cpu::or1k::buildOr1200(cpu::BugConfig::with(c.bug));
    auto asserts = cpu::or1k::or1200Assertions(d);
    const Assertion &a = props::findAssertion(asserts, c.assertId);

    BackwardEngine engine(d, or1200Options());
    TriggerResult r = engine.buildTrigger(a);
    ASSERT_EQ(r.outcome, Outcome::Found) << cpu::bugName(c.bug);
    EXPECT_LE(r.cycles.size(), c.maxLen) << cpu::bugName(c.bug);
    EXPECT_TRUE(replayTrigger(d, a, r.cycles)) << cpu::bugName(c.bug);
}

INSTANTIATE_TEST_SUITE_P(
    SingleInstructionBugs, Or1200Bse,
    ::testing::Values(
        Or1200BseCase{cpu::BugId::b03, "a03_rfe_restores_sr", 2},
        Or1200BseCase{cpu::BugId::b09, "a09_epcr_sys", 2},
        Or1200BseCase{cpu::BugId::b10, "a10_epcr_change", 2},
        Or1200BseCase{cpu::BugId::b24, "a24_gpr0_zero", 2},
        Or1200BseCase{cpu::BugId::b05, "a05_src_a", 2},
        Or1200BseCase{cpu::BugId::b13, "a13_src_b", 2}));

TEST(Or1200BseClean, NoTriggerOnCorrectCore)
{
    // On the bug-free core the gpr0 assertion is only "violable" from
    // unreachable forged states (gpr0 already nonzero); the backward
    // search must fail to connect any of them to reset and give up
    // without producing a trigger (sound, not complete: §II-D8, §V).
    rtl::Design d = cpu::or1k::buildOr1200();
    auto asserts = cpu::or1k::or1200Assertions(d);
    const Assertion &a24 =
        props::findAssertion(asserts, "a24_gpr0_zero");
    Options opts = or1200Options();
    opts.maxFeedbackRounds = 6;
    opts.timeLimitSeconds = 60;
    BackwardEngine engine(d, opts);
    TriggerResult r = engine.buildTrigger(a24);
    EXPECT_NE(r.outcome, Outcome::Found);
}

} // namespace
} // namespace coppelia::bse
