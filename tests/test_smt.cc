/**
 * @file
 * Tests for the bit-vector theory layer: construction-time simplification,
 * concrete term evaluation, bit-blasting correctness (property sweeps pin
 * variables to random constants and require the solver's model to agree
 * with reference arithmetic), and the counterexample cache, including a
 * differential check of counterexample reuse against a plain scan.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "solver/solver.hh"
#include "solver/term.hh"
#include "util/rng.hh"

namespace coppelia::smt
{
namespace
{

TEST(Term, HashConsing)
{
    TermManager tm;
    EXPECT_EQ(tm.mkConst(8, 5), tm.mkConst(8, 5));
    TermRef x = tm.mkVar("x", 8);
    EXPECT_EQ(tm.mkAdd(x, tm.mkConst(8, 1)), tm.mkAdd(x, tm.mkConst(8, 1)));
}

TEST(Term, FreshVarsAreDistinct)
{
    TermManager tm;
    EXPECT_NE(tm.mkVar("x", 8), tm.mkVar("x", 8));
}

TEST(Term, ConstantFolding)
{
    TermManager tm;
    TermRef r = tm.mkAdd(tm.mkConst(8, 200), tm.mkConst(8, 100));
    std::uint64_t k;
    ASSERT_TRUE(tm.isConst(r, &k));
    EXPECT_EQ(k, (200u + 100u) & 0xff);
}

TEST(Term, IdentitySimplifications)
{
    TermManager tm;
    TermRef x = tm.mkVar("x", 8);
    EXPECT_EQ(tm.mkAnd(x, tm.mkConst(8, 0xff)), x);
    std::uint64_t k;
    EXPECT_TRUE(tm.isConst(tm.mkAnd(x, tm.mkConst(8, 0)), &k));
    EXPECT_EQ(k, 0u);
    EXPECT_EQ(tm.mkOr(x, tm.mkConst(8, 0)), x);
    EXPECT_TRUE(tm.isConst(tm.mkXor(x, x), &k));
    EXPECT_EQ(k, 0u);
    EXPECT_EQ(tm.mkNot(tm.mkNot(x)), x);
    EXPECT_TRUE(tm.isConst(tm.mkEq(x, x), &k));
    EXPECT_EQ(k, 1u);
    EXPECT_TRUE(tm.isConst(tm.mkUlt(x, tm.mkConst(8, 0)), &k));
    EXPECT_EQ(k, 0u);
}

TEST(Term, IteSimplifications)
{
    TermManager tm;
    TermRef c = tm.mkVar("c", 1);
    TermRef x = tm.mkVar("x", 8);
    TermRef y = tm.mkVar("y", 8);
    EXPECT_EQ(tm.mkIte(tm.mkTrue(), x, y), x);
    EXPECT_EQ(tm.mkIte(tm.mkFalse(), x, y), y);
    EXPECT_EQ(tm.mkIte(c, x, x), x);
    // Boolean ite lowers to gates.
    TermRef b = tm.mkVar("b", 1);
    EXPECT_EQ(tm.mkIte(c, tm.mkTrue(), b), tm.mkOr(c, b));
    EXPECT_EQ(tm.mkIte(c, b, tm.mkFalse()), tm.mkAnd(c, b));
}

TEST(Term, ExtractRewrites)
{
    TermManager tm;
    TermRef x = tm.mkVar("x", 8);
    TermRef y = tm.mkVar("y", 8);
    TermRef cc = tm.mkConcat(x, y); // x = [15:8], y = [7:0]
    EXPECT_EQ(tm.mkExtract(cc, 7, 0), y);
    EXPECT_EQ(tm.mkExtract(cc, 15, 8), x);
    // Extract of zext above the source is zero.
    TermRef zx = tm.mkZExt(x, 16);
    std::uint64_t k;
    EXPECT_TRUE(tm.isConst(tm.mkExtract(zx, 15, 8), &k));
    EXPECT_EQ(k, 0u);
    // Extract of extract composes.
    TermRef e1 = tm.mkExtract(cc, 11, 4);
    TermRef e2 = tm.mkExtract(e1, 3, 0); // bits [7:4] of cc == x? no: y hi
    EXPECT_EQ(e2, tm.mkExtract(y, 7, 4));
}

TEST(Term, EvalUnderModel)
{
    TermManager tm;
    TermRef x = tm.mkVar("x", 8);
    TermRef y = tm.mkVar("y", 8);
    const Term &tx = tm.term(x);
    const Term &ty = tm.term(y);
    Model m;
    m.set(tx.varId, 200);
    m.set(ty.varId, 100);
    EXPECT_EQ(tm.eval(tm.mkAdd(x, y), m), (200u + 100u) & 0xff);
    EXPECT_EQ(tm.eval(tm.mkUlt(x, y), m), 0u);
    EXPECT_EQ(tm.eval(tm.mkSlt(x, y), m), 1u); // 200 is negative as int8
}

TEST(Term, CollectVars)
{
    TermManager tm;
    TermRef x = tm.mkVar("x", 8);
    TermRef y = tm.mkVar("y", 8);
    (void)tm.mkVar("unused", 8);
    TermRef e = tm.mkAdd(x, tm.mkXor(y, x));
    std::vector<int> vars;
    tm.collectVars(e, vars);
    EXPECT_EQ(vars.size(), 2u);
}

TEST(SolverFacade, TrivialSatAndUnsat)
{
    TermManager tm;
    Solver s(tm);
    EXPECT_EQ(s.check(tm.mkTrue(), nullptr), Result::Sat);
    EXPECT_EQ(s.check(tm.mkFalse(), nullptr), Result::Unsat);
}

TEST(SolverFacade, SolvesLinearEquation)
{
    // x + 3 == 10 over 8 bits -> x == 7.
    TermManager tm;
    Solver s(tm);
    TermRef x = tm.mkVar("x", 8);
    TermRef eq = tm.mkEq(tm.mkAdd(x, tm.mkConst(8, 3)), tm.mkConst(8, 10));
    Model m;
    ASSERT_EQ(s.check(eq, &m), Result::Sat);
    EXPECT_EQ(m.value(tm.term(x).varId), 7u);
}

TEST(SolverFacade, UnsatConjunction)
{
    TermManager tm;
    Solver s(tm);
    TermRef x = tm.mkVar("x", 8);
    std::vector<TermRef> cs{
        tm.mkUlt(x, tm.mkConst(8, 5)),
        tm.mkUlt(tm.mkConst(8, 9), x),
    };
    EXPECT_EQ(s.check(cs, nullptr), Result::Unsat);
}

TEST(SolverFacade, ModelSatisfiesAllAssertions)
{
    TermManager tm;
    Solver s(tm);
    TermRef x = tm.mkVar("x", 16);
    TermRef y = tm.mkVar("y", 16);
    std::vector<TermRef> cs{
        tm.mkUlt(tm.mkConst(16, 100), x),
        tm.mkEq(tm.mkAdd(x, y), tm.mkConst(16, 500)),
        tm.mkUlt(y, tm.mkConst(16, 300)),
    };
    Model m;
    ASSERT_EQ(s.check(cs, &m), Result::Sat);
    for (TermRef c : cs)
        EXPECT_EQ(tm.eval(c, m), 1u);
}

TEST(SolverFacade, CacheHitsOnRepeat)
{
    TermManager tm;
    Solver s(tm);
    TermRef x = tm.mkVar("x", 8);
    TermRef q = tm.mkEq(x, tm.mkConst(8, 42));
    (void)s.check(q, nullptr);
    std::uint64_t calls_before = s.stats().get("sat_calls");
    (void)s.check(q, nullptr);
    EXPECT_EQ(s.stats().get("sat_calls"), calls_before);
    EXPECT_GE(s.stats().get("cache_hits"), 1u);
}

TEST(SolverFacade, ModelReuseAvoidsSatCall)
{
    TermManager tm;
    Solver s(tm);
    TermRef x = tm.mkVar("x", 8);
    // First query pins x == 42; second query (x > 10) is satisfied by the
    // cached model, so no new SAT call is needed.
    Model m;
    ASSERT_EQ(s.check(tm.mkEq(x, tm.mkConst(8, 42)), &m), Result::Sat);
    std::uint64_t calls_before = s.stats().get("sat_calls");
    ASSERT_EQ(s.check(tm.mkUlt(tm.mkConst(8, 10), x), nullptr), Result::Sat);
    EXPECT_EQ(s.stats().get("sat_calls"), calls_before);
    EXPECT_GE(s.stats().get("model_reuse_hits"), 1u);
}

TEST(SolverFacade, DefaultQueryRunsNeitherRewriteNorPreprocess)
{
    // A 16-bit multiply blasts to a few thousand clauses; the query path
    // hands them to one SAT call as blasted, with no word-level rewrite
    // or CNF preprocessing time recorded.
    TermManager tm;
    Solver s(tm, SolverOptions{});
    TermRef x = tm.mkVar("x", 16), y = tm.mkVar("y", 16);
    std::vector<TermRef> q{tm.mkEq(tm.mkMul(x, y), tm.mkConst(16, 15)),
                           tm.mkEq(x, tm.mkConst(16, 3))};
    Model m;
    EXPECT_EQ(s.check(q, &m), Result::Sat);
    EXPECT_EQ(tm.eval(y, m), 5u);
    const auto plain = s.stats().all();
    EXPECT_EQ(plain.count("rewrite_us"), 0u);
    EXPECT_EQ(plain.count("preprocess_us"), 0u);
    EXPECT_EQ(plain.at("sat_calls"), 1u);
}

TEST(SolverFacade, CacheDisabled)
{
    TermManager tm;
    SolverOptions opts;
    opts.useCache = false;
    Solver s(tm, opts);
    TermRef x = tm.mkVar("x", 8);
    TermRef q = tm.mkEq(x, tm.mkConst(8, 42));
    (void)s.check(q, nullptr);
    (void)s.check(q, nullptr);
    EXPECT_EQ(s.stats().get("cache_hits"), 0u);
    EXPECT_EQ(s.stats().get("sat_calls"), 2u);
}

/**
 * Property sweep: for random operand values, assert
 *   x == a  &&  y == b  &&  z == op(x, y)
 * and require the model's z to equal reference arithmetic.
 */
class BlastSemantics : public ::testing::TestWithParam<int>
{
  protected:
    void
    checkBinary(TOp op, int width, std::uint64_t a, std::uint64_t b,
                std::uint64_t expected)
    {
        TermManager tm;
        Solver s(tm);
        TermRef x = tm.mkVar("x", width);
        TermRef y = tm.mkVar("y", width);
        TermRef z = tm.mkVar("z", width == 1 ? 1 : width);

        TermRef opr = NoTerm;
        int zw = width;
        switch (op) {
          case TOp::Add: opr = tm.mkAdd(x, y); break;
          case TOp::Sub: opr = tm.mkSub(x, y); break;
          case TOp::Mul: opr = tm.mkMul(x, y); break;
          case TOp::And: opr = tm.mkAnd(x, y); break;
          case TOp::Or: opr = tm.mkOr(x, y); break;
          case TOp::Xor: opr = tm.mkXor(x, y); break;
          case TOp::Shl: opr = tm.mkShl(x, y); break;
          case TOp::LShr: opr = tm.mkLShr(x, y); break;
          case TOp::AShr: opr = tm.mkAShr(x, y); break;
          case TOp::Ult: opr = tm.mkUlt(x, y); zw = 1; break;
          case TOp::Slt: opr = tm.mkSlt(x, y); zw = 1; break;
          case TOp::Eq: opr = tm.mkEq(x, y); zw = 1; break;
          default: FAIL() << "unsupported op in test";
        }
        if (zw == 1)
            z = tm.mkVar("zb", 1);

        std::vector<TermRef> cs{
            tm.mkEq(x, tm.mkConst(width, a)),
            tm.mkEq(y, tm.mkConst(width, b)),
            tm.mkEq(z, opr),
        };
        Model m;
        ASSERT_EQ(s.check(cs, &m), Result::Sat)
            << topName(op) << " width " << width;
        EXPECT_EQ(m.value(tm.term(z).varId), expected & termMask(zw))
            << topName(op) << " " << a << "," << b << " width " << width;
    }
};

TEST_P(BlastSemantics, RandomOperands)
{
    const int seed = GetParam();
    coppelia::Rng rng(seed * 7919 + 13);
    const int widths[] = {1, 3, 8, 13, 16, 32};
    const int width = widths[rng.below(6)];
    const std::uint64_t mask = termMask(width);
    const std::uint64_t a = rng.next() & mask;
    const std::uint64_t b = rng.next() & mask;

    auto sgn = [&](std::uint64_t v) {
        if (width == 64)
            return static_cast<std::int64_t>(v);
        std::uint64_t s = 1ull << (width - 1);
        return static_cast<std::int64_t>((v & s) ? v - (s << 1) : v);
    };

    checkBinary(TOp::Add, width, a, b, a + b);
    checkBinary(TOp::Sub, width, a, b, a - b);
    checkBinary(TOp::And, width, a, b, a & b);
    checkBinary(TOp::Or, width, a, b, a | b);
    checkBinary(TOp::Xor, width, a, b, a ^ b);
    checkBinary(TOp::Ult, width, a, b, a < b);
    checkBinary(TOp::Slt, width, a, b, sgn(a) < sgn(b));
    checkBinary(TOp::Eq, width, a, b, a == b);
    if (width <= 16) {
        checkBinary(TOp::Mul, width, a, b, a * b);
        checkBinary(TOp::Shl, width, a, b, b >= 64 ? 0 : a << b);
        checkBinary(TOp::LShr, width, a, b, b >= 64 ? 0 : a >> b);
        std::uint64_t ashr_ref;
        if (b >= 63)
            ashr_ref = sgn(a) < 0 ? ~0ull : 0;
        else
            ashr_ref = static_cast<std::uint64_t>(sgn(a) >> b);
        checkBinary(TOp::AShr, width, a, b, ashr_ref);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlastSemantics, ::testing::Range(0, 25));

/**
 * Property: a satisfiable random formula's model must evaluate every
 * assertion to true (model soundness through blasting and readback).
 */
TEST(BlastSoundness, RandomFormulaModelsCheckOut)
{
    coppelia::Rng rng(1234);
    for (int trial = 0; trial < 30; ++trial) {
        TermManager tm;
        Solver s(tm);
        TermRef x = tm.mkVar("x", 12);
        TermRef y = tm.mkVar("y", 12);
        TermRef zv = tm.mkVar("z", 12);

        std::vector<TermRef> pool{
            tm.mkUlt(x, tm.mkConst(12, rng.below(4096))),
            tm.mkEq(tm.mkAnd(y, tm.mkConst(12, 0xf0)),
                    tm.mkConst(12, (rng.below(16)) << 4)),
            tm.mkUlt(tm.mkAdd(x, y), tm.mkConst(12, rng.below(4096))),
            tm.mkEq(tm.mkXor(zv, x), y),
            tm.mkNot(tm.mkEq(zv, tm.mkConst(12, rng.below(4096)))),
        };
        std::vector<TermRef> cs;
        for (TermRef p : pool) {
            if (rng.flip())
                cs.push_back(p);
        }
        if (cs.empty())
            cs.push_back(pool[0]);

        Model m;
        Result r = s.check(cs, &m);
        if (r == Result::Sat) {
            for (TermRef c : cs)
                EXPECT_EQ(tm.eval(c, m), 1u) << "trial " << trial;
        }
    }
}

TEST(BlastSoundness, ConcatExtractSextRoundTrip)
{
    TermManager tm;
    Solver s(tm);
    TermRef x = tm.mkVar("x", 9); // deliberately non-byte width (§II-E1)
    // sext to 16, take top bits, compare against sign replication.
    TermRef sx = tm.mkSExt(x, 16);
    TermRef top = tm.mkExtract(sx, 15, 9);
    TermRef sign = tm.mkExtract(x, 8, 8);
    // top == sign ? 0x7f : 0x00 must hold for all x: assert the negation is
    // UNSAT.
    TermRef all_ones = tm.mkConst(7, 0x7f);
    TermRef zeros = tm.mkConst(7, 0);
    TermRef expected = tm.mkIte(sign, all_ones, zeros);
    TermRef bad = tm.mkNot(tm.mkEq(top, expected));
    EXPECT_EQ(s.check(bad, nullptr), Result::Unsat);
}

/**
 * Differential property: the incremental backend (persistent SAT instance,
 * memoized blaster, assumption frames) must be observationally identical to
 * a fresh solver per query — same SAT/UNSAT verdicts, and every Sat model
 * must satisfy the query it answers. Runs deterministic randomized query
 * sequences whose members share structure, the shape the BSEE hot path
 * produces (common transition-relation terms + varying stitching pins).
 */
TEST(Incremental, DifferentialAgainstFreshSolver)
{
    for (std::uint64_t seed : {11u, 42u, 20260806u}) {
        coppelia::Rng rng(seed);
        TermManager tm;

        SolverOptions inc_opts;
        inc_opts.incremental = true;
        inc_opts.useCache = false; // exercise the backend, not the cache
        SolverOptions fresh_opts;
        fresh_opts.incremental = false;
        fresh_opts.useCache = false;
        Solver inc(tm, inc_opts);
        Solver fresh(tm, fresh_opts);

        TermRef x = tm.mkVar("x", 12);
        TermRef y = tm.mkVar("y", 12);
        TermRef zv = tm.mkVar("z", 12);
        // Shared "transition relation" pool: every query draws from these,
        // so the incremental blaster should hit its memo table constantly.
        std::vector<TermRef> pool{
            tm.mkUlt(x, tm.mkConst(12, 900)),
            tm.mkEq(tm.mkAnd(y, tm.mkConst(12, 0xf0)), tm.mkConst(12, 0x30)),
            tm.mkUlt(tm.mkAdd(x, y), tm.mkConst(12, 2000)),
            tm.mkEq(tm.mkXor(zv, x), y),
            tm.mkNot(tm.mkEq(zv, tm.mkConst(12, 77))),
            tm.mkUlt(tm.mkConst(12, 100), tm.mkMul(x, tm.mkConst(12, 3))),
        };

        for (int q = 0; q < 60; ++q) {
            std::vector<TermRef> cs;
            for (TermRef p : pool) {
                if (rng.flip())
                    cs.push_back(p);
            }
            // Per-query pins (the stitching/exclusion role): often make the
            // query UNSAT against the pool, so both verdicts get exercised.
            if (rng.flip())
                cs.push_back(tm.mkEq(x, tm.mkConst(12, rng.below(4096))));
            if (rng.flip())
                cs.push_back(tm.mkEq(y, tm.mkConst(12, rng.below(4096))));
            if (cs.empty())
                cs.push_back(pool[q % pool.size()]);

            Model mi, mf;
            Result ri = inc.check(cs, &mi);
            Result rf = fresh.check(cs, &mf);
            ASSERT_EQ(ri, rf) << "seed " << seed << " query " << q;
            if (ri == Result::Sat) {
                for (TermRef c : cs) {
                    EXPECT_EQ(tm.eval(c, mi), 1u)
                        << "incremental model, seed " << seed << " q " << q;
                    EXPECT_EQ(tm.eval(c, mf), 1u)
                        << "fresh model, seed " << seed << " q " << q;
                }
            }
        }
        // The memoized blaster must have reused translations across queries.
        EXPECT_GT(inc.stats().get("blast_cache_hits"), 0u);
        EXPECT_EQ(inc.stats().get("incremental_queries"),
                  inc.stats().get("sat_calls"));
    }
}

TEST(Incremental, ResetDiscardsSolverStateButStaysCorrect)
{
    TermManager tm;
    SolverOptions opts;
    opts.useCache = false;
    Solver s(tm, opts);
    TermRef x = tm.mkVar("x", 8);
    ASSERT_EQ(s.check(tm.mkEq(x, tm.mkConst(8, 3)), nullptr), Result::Sat);
    std::uint64_t lowered = s.stats().get("blast_terms_lowered");
    s.resetIncremental();
    // Same query after a reset: terms must be re-lowered from scratch and
    // the verdict must not change.
    Model m;
    ASSERT_EQ(s.check(tm.mkEq(x, tm.mkConst(8, 3)), &m), Result::Sat);
    EXPECT_EQ(m.value(tm.term(x).varId), 3u);
    EXPECT_GT(s.stats().get("blast_terms_lowered"), lowered);
}

/**
 * Regression for the Unknown/Unsat conflation fix: a query that needs at
 * least one conflict, solved under conflictBudget that the budget check
 * trips on, must come back Unknown — never Unsat — and a follow-up
 * checkWithBudget with an unlimited budget must reach the real verdict on
 * the same (still-live) incremental instance.
 */
TEST(SolverFacade, ExhaustedBudgetIsUnknownNotUnsat)
{
    TermManager tm;
    SolverOptions opts;
    opts.conflictBudget = 1; // first learned conflict trips the budget
    Solver s(tm, opts);
    TermRef a = tm.mkVar("a", 1);
    TermRef b = tm.mkVar("b", 1);
    TermRef c = tm.mkVar("c", 1);
    // XOR triangle: pairwise-xor constraints are 2-watched with no unit
    // propagation from the assertions alone, so refutation requires a
    // decision and at least one conflict.
    std::vector<TermRef> cs{tm.mkXor(a, b), tm.mkXor(b, c), tm.mkXor(a, c)};

    EXPECT_EQ(s.check(cs, nullptr), Result::Unknown);
    EXPECT_GE(s.stats().get("budget_exhausted"), 1u);

    // The retry path the engines use: same query, larger budget.
    EXPECT_EQ(s.checkWithBudget(cs, nullptr, -1), Result::Unsat);
    // checkWithBudget must restore the configured budget afterwards.
    EXPECT_EQ(s.check(cs, nullptr), Result::Unsat); // now cached
}

TEST(SolverFacade, UnknownIsNeverCached)
{
    TermManager tm;
    SolverOptions opts;
    opts.conflictBudget = 1;
    Solver s(tm, opts);
    TermRef a = tm.mkVar("a", 1);
    TermRef b = tm.mkVar("b", 1);
    TermRef c = tm.mkVar("c", 1);
    std::vector<TermRef> cs{tm.mkXor(a, b), tm.mkXor(b, c), tm.mkXor(a, c)};
    ASSERT_EQ(s.check(cs, nullptr), Result::Unknown);
    // The second attempt may refute outright (retained learnt clauses can
    // finish the proof without a new conflict) but must never report Sat,
    // and must hit the SAT core again: a cached Unknown would be a lie the
    // retry path could never recover from.
    EXPECT_NE(s.check(cs, nullptr), Result::Sat);
    EXPECT_EQ(s.stats().get("cache_hits"), 0u);
    EXPECT_EQ(s.stats().get("sat_calls"), 2u);
}

TEST(SolverFacade, SolverStillUsableAfterUnknown)
{
    TermManager tm;
    SolverOptions opts;
    opts.conflictBudget = 1;
    Solver s(tm, opts);
    TermRef a = tm.mkVar("a", 1);
    TermRef b = tm.mkVar("b", 1);
    TermRef c = tm.mkVar("c", 1);
    std::vector<TermRef> triangle{tm.mkXor(a, b), tm.mkXor(b, c),
                                  tm.mkXor(a, c)};
    ASSERT_EQ(s.check(triangle, nullptr), Result::Unknown);
    // The persistent instance must answer an easy satisfiable query
    // correctly after a budget abort.
    TermRef x = tm.mkVar("x", 8);
    Model m;
    ASSERT_EQ(s.check(tm.mkEq(x, tm.mkConst(8, 9)), &m), Result::Sat);
    EXPECT_EQ(m.value(tm.term(x).varId), 9u);
}

TEST(SolverFacade, CacheCapEvictsOldestEntries)
{
    TermManager tm;
    SolverOptions opts;
    opts.cacheMaxEntries = 8;
    opts.maxRecentModels = 4;
    Solver s(tm, opts);
    TermRef x = tm.mkVar("x", 8);
    for (int i = 0; i < 32; ++i) {
        ASSERT_EQ(s.check(tm.mkEq(x, tm.mkConst(8, i)), nullptr),
                  Result::Sat);
    }
    // 32 distinct pinned queries through an 8-entry cache: the FIFO must
    // have evicted, and re-asking an evicted query must still be correct.
    EXPECT_GE(s.stats().get("cache_evictions"), 24u);
    Model m;
    ASSERT_EQ(s.check(tm.mkEq(x, tm.mkConst(8, 0)), &m), Result::Sat);
    EXPECT_EQ(m.value(tm.term(x).varId), 0u);
}

TEST(SolverFacade, RecentModelRingStaysBoundedAndCorrect)
{
    TermManager tm;
    SolverOptions opts;
    opts.maxRecentModels = 2; // tiny ring: force wraparound quickly
    Solver s(tm, opts);
    TermRef x = tm.mkVar("x", 8);
    for (int i = 0; i < 10; ++i) {
        Model m;
        ASSERT_EQ(s.check(tm.mkEq(x, tm.mkConst(8, 100 + i)), &m),
                  Result::Sat);
        EXPECT_EQ(m.value(tm.term(x).varId), 100u + i);
    }
    // A loose query is answered from a ring slot (whichever survived).
    std::uint64_t calls_before = s.stats().get("sat_calls");
    Model m;
    ASSERT_EQ(s.check(tm.mkUlt(tm.mkConst(8, 50), x), &m), Result::Sat);
    EXPECT_EQ(s.stats().get("sat_calls"), calls_before);
    EXPECT_GT(m.value(tm.term(x).varId), 50u);
}

/**
 * A slot that the ring overwrites must forget what its old model said:
 * an assertion false under the old model and true under the new one is
 * answered from the slot, and one true under the old model and false
 * under the new one is not.
 */
TEST(ReuseDifferential, OverwrittenSlotIsReevaluated)
{
    TermManager tm;
    SolverOptions opts;
    opts.maxRecentModels = 2;
    Solver s(tm, opts);
    TermRef x = tm.mkVar("x", 8);
    TermRef y = tm.mkVar("y", 8);
    auto xIs = [&](std::uint64_t k) { return tm.mkEq(x, tm.mkConst(8, k)); };
    TermRef x_small = tm.mkUlt(x, tm.mkConst(8, 2));

    Model m;
    ASSERT_EQ(s.check(xIs(1), &m), Result::Sat); // slot 0: x = 1
    // Slot 0 evaluates x < 2 (true) and x == 3 (false) before x = 3 is
    // solved into slot 1.
    ASSERT_EQ(s.check({x_small, xIs(3)}, &m), Result::Unsat);
    ASSERT_EQ(s.check(xIs(3), &m), Result::Sat); // slot 1: x = 3
    ASSERT_EQ(s.check(xIs(4), &m), Result::Sat); // overwrites slot 0
    EXPECT_EQ(s.stats().get("model_reuse_hits"), 0u);

    // x == 4 was false under slot 0's old model, true under its new one.
    const std::uint64_t calls = s.stats().get("sat_calls");
    ASSERT_EQ(s.check({xIs(4), tm.mkEq(y, tm.mkConst(8, 0))}, &m),
              Result::Sat);
    EXPECT_EQ(s.stats().get("model_reuse_hits"), 1u);
    EXPECT_EQ(s.stats().get("sat_calls"), calls);
    EXPECT_EQ(m.value(tm.term(x).varId), 4u);

    // x < 2 was true under slot 0's old model, false under its new one
    // (and under slot 1's): the query needs a SAT call.
    ASSERT_EQ(s.check({x_small, tm.mkUlt(y, tm.mkConst(8, 9))}, &m),
              Result::Sat);
    EXPECT_EQ(s.stats().get("sat_calls"), calls + 1);
    EXPECT_LT(m.value(tm.term(x).varId), 2u);
}

/**
 * Differential property of counterexample reuse: over random streams of
 * conjunctions drawn from shared random sub-terms, a mirror of the
 * solver's ring, filled from the models of the queries that went to SAT,
 * predicts every answer with a plain tm.eval scan. A query that some
 * mirrored slot satisfies is answered with the first such slot's model
 * and no SAT call; one that no slot satisfies goes to SAT. Rings of 2-4
 * models keep overwriting slots, and the mirror counts the lookups where
 * a slot's earlier occupant gave an assertion the opposite truth value,
 * which a memo kept across the overwrite would answer wrongly.
 */
TEST(ReuseDifferential, AnswersMatchPlainScanOfMirroredRing)
{
    std::uint64_t reuse_answers = 0, sat_dispatches = 0, stale_lookups = 0;
    for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
        coppelia::Rng rng(seed);
        TermManager tm;
        SolverOptions opts;
        opts.maxRecentModels = 2 + rng.below(3);
        Solver s(tm, opts);

        // Narrow words so that models satisfy each other's queries often.
        std::vector<TermRef> words;
        for (int i = 0; i < 3; ++i)
            words.push_back(tm.mkVar("v" + std::to_string(i), 4));
        auto word = [&] { return words[rng.below(words.size())]; };
        for (int i = 0; i < 3; ++i) {
            TermRef a = word(), b = word();
            switch (rng.below(3)) {
              case 0: words.push_back(tm.mkAdd(a, b)); break;
              case 1: words.push_back(tm.mkXor(a, b)); break;
              default:
                words.push_back(tm.mkAnd(a, tm.mkConst(4, rng.below(16))));
            }
        }
        std::vector<TermRef> atoms;
        for (int i = 0; i < 10; ++i) {
            TermRef a = word();
            TermRef b = rng.flip() ? tm.mkConst(4, rng.below(16)) : word();
            switch (rng.below(3)) {
              case 0: atoms.push_back(tm.mkEq(a, b)); break;
              case 1: atoms.push_back(tm.mkUlt(a, b)); break;
              default: atoms.push_back(tm.mkNot(tm.mkEq(a, b)));
            }
        }

        struct MirrorSlot
        {
            Model model;
            /** First truth value each assertion had under any occupant
             *  of the slot: what a memo kept across overwrites holds. */
            std::map<TermRef, bool> uncleared;
        };
        std::vector<MirrorSlot> ring;
        std::size_t next = 0;

        for (int q = 0; q < 40; ++q) {
            std::vector<TermRef> cs;
            const std::uint64_t k = 1 + rng.below(3);
            for (std::uint64_t i = 0; i < k; ++i)
                cs.push_back(atoms[rng.below(atoms.size())]);

            const StatGroup before = s.stats();
            Model m;
            const Result r = s.check(cs, &m);
            auto moved = [&](const char *name) {
                return s.stats().get(name) != before.get(name);
            };
            const std::string where =
                "seed " + std::to_string(seed) + " q " + std::to_string(q);

            // Exact repeats (after rewriting) hit the exact-key cache,
            // and constant-false conjunctions short-circuit; neither
            // reaches the reuse scan.
            if (moved("cache_hits") || moved("trivially_unsat")) {
                if (r == Result::Sat) {
                    for (TermRef c : cs)
                        ASSERT_EQ(tm.eval(c, m), 1u) << where;
                }
                continue;
            }

            // The plain scan, in ring order, each slot up to its first
            // false assertion (the lookups a memo serves).
            int expected = -1;
            for (std::size_t i = 0; i < ring.size() && expected < 0; ++i) {
                MirrorSlot &slot = ring[i];
                bool all = true;
                for (TermRef c : cs) {
                    const bool v = tm.eval(c, slot.model) != 0;
                    auto [it, fresh] = slot.uncleared.try_emplace(c, v);
                    if (!fresh && it->second != v)
                        ++stale_lookups;
                    if (!v) {
                        all = false;
                        break;
                    }
                }
                if (all)
                    expected = static_cast<int>(i);
            }

            if (expected >= 0) {
                ++reuse_answers;
                ASSERT_EQ(r, Result::Sat) << where;
                ASSERT_TRUE(moved("model_reuse_hits")) << where;
                ASSERT_FALSE(moved("sat_calls")) << where;
                ASSERT_EQ(m.all(), ring[expected].model.all()) << where;
                continue;
            }
            ++sat_dispatches;
            ASSERT_TRUE(moved("sat_calls")) << where;
            ASSERT_FALSE(moved("model_reuse_hits")) << where;
            if (r != Result::Sat)
                continue;
            for (TermRef c : cs)
                ASSERT_EQ(tm.eval(c, m), 1u) << where;
            if (ring.size() < opts.maxRecentModels) {
                ring.push_back(MirrorSlot{m, {}});
            } else {
                ring[next].model = m;
                next = (next + 1) % ring.size();
            }
        }
    }
    EXPECT_GT(reuse_answers, 0u);
    EXPECT_GT(sat_dispatches, 0u);
    EXPECT_GT(stale_lookups, 0u);
}

TEST(BlastSoundness, NonByteWidthRangeConstraint)
{
    // Width-5 variable can reach 31 but never 32 (the paper's §II-E1 range
    // constraints are implicit in width-typed terms).
    TermManager tm;
    Solver s(tm);
    TermRef x = tm.mkVar("x", 5);
    TermRef z32 = tm.mkZExt(x, 8);
    EXPECT_EQ(s.check(tm.mkEq(z32, tm.mkConst(8, 31)), nullptr),
              Result::Sat);
    EXPECT_EQ(s.check(tm.mkEq(z32, tm.mkConst(8, 32)), nullptr),
              Result::Unsat);
}

} // namespace
} // namespace coppelia::smt
