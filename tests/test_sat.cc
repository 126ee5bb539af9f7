/**
 * @file
 * Unit and property tests for the CDCL SAT core: basic propagation, model
 * correctness on random 3-SAT against a brute-force reference, assumption
 * handling, failed-assumption cores, and pigeonhole unsatisfiability.
 */

#include <gtest/gtest.h>

#include "solver/sat/sat.hh"
#include "util/rng.hh"

namespace coppelia::sat
{
namespace
{

TEST(Sat, EmptyIsSat)
{
    Solver s;
    EXPECT_EQ(s.solve(), SatResult::Sat);
}

TEST(Sat, UnitPropagation)
{
    Solver s;
    Var a = s.newVar();
    Var b = s.newVar();
    s.addUnit(Lit(a, false));
    s.addBinary(Lit(a, true), Lit(b, false)); // a -> b
    EXPECT_EQ(s.solve(), SatResult::Sat);
    EXPECT_EQ(s.value(a), LBool::True);
    EXPECT_EQ(s.value(b), LBool::True);
}

TEST(Sat, ContradictoryUnitsUnsat)
{
    Solver s;
    Var a = s.newVar();
    s.addUnit(Lit(a, false));
    EXPECT_FALSE(s.addUnit(Lit(a, true)));
    EXPECT_EQ(s.solve(), SatResult::Unsat);
}

TEST(Sat, TautologyIsDropped)
{
    Solver s;
    Var a = s.newVar();
    EXPECT_TRUE(s.addBinary(Lit(a, false), Lit(a, true)));
    EXPECT_EQ(s.solve(), SatResult::Sat);
}

TEST(Sat, SimpleConflictDriven)
{
    // (a|b) & (a|~b) & (~a|b) & (~a|~b) is unsat.
    Solver s;
    Var a = s.newVar();
    Var b = s.newVar();
    s.addBinary(Lit(a, false), Lit(b, false));
    s.addBinary(Lit(a, false), Lit(b, true));
    s.addBinary(Lit(a, true), Lit(b, false));
    s.addBinary(Lit(a, true), Lit(b, true));
    EXPECT_EQ(s.solve(), SatResult::Unsat);
}

TEST(Sat, XorChainSat)
{
    // x0 ^ x1 = 1, x1 ^ x2 = 1, ... satisfiable with alternating values.
    Solver s;
    const int n = 20;
    std::vector<Var> x;
    for (int i = 0; i < n; ++i)
        x.push_back(s.newVar());
    for (int i = 0; i + 1 < n; ++i) {
        s.addBinary(Lit(x[i], false), Lit(x[i + 1], false));
        s.addBinary(Lit(x[i], true), Lit(x[i + 1], true));
    }
    s.addUnit(Lit(x[0], false));
    EXPECT_EQ(s.solve(), SatResult::Sat);
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(s.value(x[i]), i % 2 == 0 ? LBool::True : LBool::False);
}

TEST(Sat, AssumptionsSatAndUnsat)
{
    Solver s;
    Var a = s.newVar();
    Var b = s.newVar();
    s.addBinary(Lit(a, true), Lit(b, false)); // a -> b
    EXPECT_EQ(s.solve({Lit(a, false)}), SatResult::Sat);
    EXPECT_EQ(s.value(b), LBool::True);
    // Assume a and !b: contradiction with a->b.
    EXPECT_EQ(s.solve({Lit(a, false), Lit(b, true)}), SatResult::Unsat);
    // The solver object stays usable afterwards.
    EXPECT_EQ(s.solve({Lit(b, true)}), SatResult::Sat);
    EXPECT_EQ(s.value(a), LBool::False);
}

TEST(Sat, FailedAssumptionCore)
{
    Solver s;
    Var a = s.newVar();
    Var b = s.newVar();
    Var c = s.newVar();
    s.addBinary(Lit(a, true), Lit(b, true)); // !(a & b)
    ASSERT_EQ(s.solve({Lit(a, false), Lit(b, false), Lit(c, false)}),
              SatResult::Unsat);
    // The core must mention a or b, and need not mention c.
    bool mentions_ab = false;
    bool mentions_c = false;
    for (Lit l : s.failedAssumptions()) {
        if (l.var() == a || l.var() == b)
            mentions_ab = true;
        if (l.var() == c)
            mentions_c = true;
    }
    EXPECT_TRUE(mentions_ab);
    EXPECT_FALSE(mentions_c);
}

TEST(Sat, PigeonholeUnsat)
{
    // 4 pigeons, 3 holes: classic hard-ish unsat instance exercising clause
    // learning.
    Solver s;
    const int P = 4, H = 3;
    std::vector<std::vector<Var>> v(P, std::vector<Var>(H));
    for (int p = 0; p < P; ++p)
        for (int h = 0; h < H; ++h)
            v[p][h] = s.newVar();
    for (int p = 0; p < P; ++p) {
        std::vector<Lit> clause;
        for (int h = 0; h < H; ++h)
            clause.push_back(Lit(v[p][h], false));
        s.addClause(clause);
    }
    for (int h = 0; h < H; ++h)
        for (int p1 = 0; p1 < P; ++p1)
            for (int p2 = p1 + 1; p2 < P; ++p2)
                s.addBinary(Lit(v[p1][h], true), Lit(v[p2][h], true));
    EXPECT_EQ(s.solve(), SatResult::Unsat);
    EXPECT_GT(s.stats().get("conflicts"), 0u);
}

TEST(Sat, ConflictBudgetReturnsUnknown)
{
    // Pigeonhole 7/6 takes well over 1 conflict; budget of 1 must bail.
    Solver s;
    const int P = 7, H = 6;
    std::vector<std::vector<Var>> v(P, std::vector<Var>(H));
    for (int p = 0; p < P; ++p)
        for (int h = 0; h < H; ++h)
            v[p][h] = s.newVar();
    for (int p = 0; p < P; ++p) {
        std::vector<Lit> clause;
        for (int h = 0; h < H; ++h)
            clause.push_back(Lit(v[p][h], false));
        s.addClause(clause);
    }
    for (int h = 0; h < H; ++h)
        for (int p1 = 0; p1 < P; ++p1)
            for (int p2 = p1 + 1; p2 < P; ++p2)
                s.addBinary(Lit(v[p1][h], true), Lit(v[p2][h], true));
    EXPECT_EQ(s.solve({}, 1), SatResult::Unknown);
}

/**
 * Adds one clause (~from | to) per link. With @p pad every clause also
 * carries a literal that a unit added afterwards fixes false, so the
 * links stay ternary and propagate through the watch lists instead of
 * the binary fast path (the pad unit itself propagates one literal).
 */
void
addLinks(Solver &s, const std::vector<std::pair<Lit, Lit>> &links, bool pad)
{
    const Var off = pad ? s.newVar() : 0;
    for (const auto &[from, to] : links) {
        std::vector<Lit> c{~from, to};
        if (pad)
            c.push_back(Lit(off, false));
        ASSERT_TRUE(s.addClause(c));
    }
    if (pad) {
        ASSERT_TRUE(s.addUnit(Lit(off, true)));
    }
}

/** "propagations" counts every literal propagate() dequeues, exactly. */
TEST(SatPropagationCount, ImplicationChainCountsEachLiteralOnce)
{
    constexpr int n = 12;
    for (bool pad : {false, true}) {
        Solver s;
        std::vector<Var> x;
        for (int i = 0; i <= n; ++i)
            x.push_back(s.newVar());
        std::vector<std::pair<Lit, Lit>> links;
        for (int i = 0; i < n; ++i)
            links.push_back({Lit(x[i], false), Lit(x[i + 1], false)});
        addLinks(s, links, pad);
        ASSERT_EQ(s.stats().get("propagations"), pad ? 1u : 0u);

        // x0 = 1 propagates the whole chain from the root: x0..xn.
        ASSERT_TRUE(s.addUnit(Lit(x[0], false)));
        EXPECT_EQ(s.stats().get("propagations"), (pad ? 1u : 0u) + n + 1)
            << (pad ? "watch-list path" : "binary path");
        // Nothing is left to propagate or decide.
        EXPECT_EQ(s.solve(), SatResult::Sat);
        EXPECT_EQ(s.stats().get("propagations"), (pad ? 1u : 0u) + n + 1);
        for (Var v : x)
            EXPECT_EQ(s.value(v), LBool::True);
    }
}

/** A conflict stops propagation: the implied literals still on the trail
 *  were never dequeued, so they are not counted. */
TEST(SatPropagationCount, ConflictLeavesTrailLiteralsUncounted)
{
    constexpr int n = 12;
    for (bool pad : {false, true}) {
        Solver s;
        std::vector<Var> x;
        for (int i = 0; i <= n; ++i)
            x.push_back(s.newVar());
        const Var z = s.newVar();
        std::vector<std::pair<Lit, Lit>> links;
        for (int i = 0; i < n; ++i)
            links.push_back({Lit(x[i], false), Lit(x[i + 1], false)});
        // xn -> z and xn -> ~z: dequeuing xn implies one of them and then
        // conflicts on the other, which is never dequeued.
        links.push_back({Lit(x[n], false), Lit(z, false)});
        links.push_back({Lit(x[n], false), Lit(z, true)});
        addLinks(s, links, pad);
        const std::uint64_t before = s.stats().get("propagations");

        EXPECT_FALSE(s.addUnit(Lit(x[0], false)));
        EXPECT_EQ(s.stats().get("propagations") - before, n + 1u)
            << (pad ? "watch-list path" : "binary path");
        EXPECT_EQ(s.solve(), SatResult::Unsat);
    }
}

/** Brute-force reference check over all assignments. */
bool
bruteForceSat(int nvars, const std::vector<std::vector<Lit>> &clauses)
{
    for (std::uint64_t m = 0; m < (1ull << nvars); ++m) {
        bool all = true;
        for (const auto &c : clauses) {
            bool any = false;
            for (Lit l : c) {
                bool val = (m >> l.var()) & 1;
                if (val != l.sign()) {
                    any = true;
                    break;
                }
            }
            if (!any) {
                all = false;
                break;
            }
        }
        if (all)
            return true;
    }
    return false;
}

/** Property sweep: random 3-SAT agrees with brute force, and SAT models
 *  actually satisfy every clause. */
class Random3Sat : public ::testing::TestWithParam<int>
{
};

TEST_P(Random3Sat, AgreesWithBruteForce)
{
    const int seed = GetParam();
    coppelia::Rng rng(seed);
    const int nvars = 8;
    const int nclauses = 3 + static_cast<int>(rng.below(40));

    std::vector<std::vector<Lit>> clauses;
    for (int i = 0; i < nclauses; ++i) {
        std::vector<Lit> c;
        for (int j = 0; j < 3; ++j)
            c.push_back(Lit(static_cast<Var>(rng.below(nvars)), rng.flip()));
        clauses.push_back(c);
    }

    Solver s;
    for (int i = 0; i < nvars; ++i)
        s.newVar();
    bool consistent = true;
    for (auto &c : clauses)
        consistent = s.addClause(c) && consistent;

    bool expected = bruteForceSat(nvars, clauses);
    SatResult got = consistent ? s.solve() : SatResult::Unsat;
    EXPECT_EQ(got == SatResult::Sat, expected) << "seed " << seed;

    if (got == SatResult::Sat) {
        for (const auto &c : clauses) {
            bool any = false;
            for (Lit l : c)
                any = any || s.value(l) == LBool::True;
            EXPECT_TRUE(any) << "model violates clause, seed " << seed;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Random3Sat, ::testing::Range(0, 40));

// --- random mixed-length CNF ------------------------------------------------

/** Random CNF with mixed clause lengths (1-4). */
std::vector<std::vector<Lit>>
randomCnf(coppelia::Rng &rng, int nvars, int nclauses)
{
    std::vector<std::vector<Lit>> clauses;
    for (int i = 0; i < nclauses; ++i) {
        std::vector<Lit> c;
        const int len = 1 + static_cast<int>(rng.below(4));
        for (int j = 0; j < len; ++j)
            c.push_back(Lit(static_cast<Var>(rng.below(nvars)), rng.flip()));
        clauses.push_back(c);
    }
    return clauses;
}

/** Exhaustive differential on small mixed-length CNFs (units through
 *  4-clauses over 4-12 vars): the solver agrees with brute force, and a
 *  Sat model is total and satisfies every original clause. The suite is
 *  named for the CNF preprocessing pass it was first written against;
 *  the solver now keeps the clause database exactly as added, so no
 *  variable may be left unassigned for a model to extend over. */
class PreprocessDifferential : public ::testing::TestWithParam<int>
{
};

TEST_P(PreprocessDifferential, AgreesWithBruteForceAndExtends)
{
    const int seed = GetParam();
    coppelia::Rng rng(1000 + seed);
    const int nvars = 4 + static_cast<int>(rng.below(9)); // 4..12
    const auto clauses = randomCnf(rng, nvars, 5 + static_cast<int>(rng.below(30)));

    Solver s;
    for (int i = 0; i < nvars; ++i)
        s.newVar();
    bool consistent = true;
    for (const auto &c : clauses)
        consistent = s.addClause(c) && consistent;

    const bool expected = bruteForceSat(nvars, clauses);
    const SatResult got = consistent ? s.solve() : SatResult::Unsat;
    ASSERT_EQ(got == SatResult::Sat, expected) << "seed " << seed;
    if (got == SatResult::Sat) {
        for (int v = 0; v < nvars; ++v)
            EXPECT_NE(s.value(v), LBool::Undef) << "seed " << seed;
        for (const auto &c : clauses) {
            bool any = false;
            for (Lit l : c)
                any = any || s.value(l) == LBool::True;
            EXPECT_TRUE(any) << "model violates clause, seed " << seed;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PreprocessDifferential,
                         ::testing::Range(0, 120));

// --- learnt-clause minimization ---------------------------------------------

TEST(SatMinimize, SavesLiteralsAndPreservesResults)
{
    // Pigeonhole 5/4: enough conflicts that recursive minimization must
    // fire; the instance is unsat either way.
    const auto buildPigeonhole = [](Solver &s) {
        const int P = 5, H = 4;
        std::vector<std::vector<Var>> v(P, std::vector<Var>(H));
        for (int p = 0; p < P; ++p)
            for (int h = 0; h < H; ++h)
                v[p][h] = s.newVar();
        for (int p = 0; p < P; ++p) {
            std::vector<Lit> clause;
            for (int h = 0; h < H; ++h)
                clause.push_back(Lit(v[p][h], false));
            s.addClause(clause);
        }
        for (int h = 0; h < H; ++h)
            for (int p1 = 0; p1 < P; ++p1)
                for (int p2 = p1 + 1; p2 < P; ++p2)
                    s.addBinary(Lit(v[p1][h], true), Lit(v[p2][h], true));
    };

    Solver on;
    buildPigeonhole(on);
    EXPECT_EQ(on.solve(), SatResult::Unsat);
    EXPECT_GT(on.stats().get("learnt_lits_saved"), 0u);

    Solver off;
    off.setMinimizeLearnts(false);
    buildPigeonhole(off);
    EXPECT_EQ(off.solve(), SatResult::Unsat);
    EXPECT_EQ(off.stats().get("learnt_lits_saved"), 0u);
}

/** Random 3-SAT sweep with minimization off: same answers as default.
 *  (The default-on path is covered by the Random3Sat sweep above.) */
class MinimizeDifferential : public ::testing::TestWithParam<int>
{
};

TEST_P(MinimizeDifferential, OnOffAgree)
{
    const int seed = GetParam();
    coppelia::Rng rng(4000 + seed);
    const int nvars = 10;
    const auto clauses =
        randomCnf(rng, nvars, 10 + static_cast<int>(rng.below(35)));

    Solver on;
    Solver off;
    off.setMinimizeLearnts(false);
    for (int i = 0; i < nvars; ++i) {
        on.newVar();
        off.newVar();
    }
    bool okOn = true, okOff = true;
    for (const auto &c : clauses) {
        okOn = on.addClause(c) && okOn;
        okOff = off.addClause(c) && okOff;
    }
    ASSERT_EQ(okOn, okOff);
    const SatResult ra = okOn ? on.solve() : SatResult::Unsat;
    const SatResult rb = okOff ? off.solve() : SatResult::Unsat;
    EXPECT_EQ(ra, rb) << "seed " << seed;
    EXPECT_EQ(ra == SatResult::Sat, bruteForceSat(nvars, clauses))
        << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinimizeDifferential,
                         ::testing::Range(0, 40));

// --- reduceDB safety under aggressive thresholds ----------------------------

/** Replay an incremental stitching-style sequence (same database, varying
 *  assumption frames, cancelToRoot between queries) with the reduction
 *  trigger forced to fire constantly. Reason-clause pinning must keep every
 *  answer identical to an unreduced reference. */
class AggressiveReduceDb : public ::testing::TestWithParam<int>
{
};

TEST_P(AggressiveReduceDb, IncrementalReplayMatchesReference)
{
    const int seed = GetParam();
    coppelia::Rng rng(9000 + seed);
    const int nvars = 20;

    Solver aggressive;
    aggressive.setReduceDbPolicy(0.0, 0); // reduce on every conflict check
    Solver ref;
    ref.setReduceDbPolicy(1e9, 1u << 30); // never reduce
    for (int i = 0; i < nvars; ++i) {
        aggressive.newVar();
        ref.newVar();
    }
    bool okA = true, okR = true;
    for (const auto &c : randomCnf(rng, nvars, 80)) {
        okA = aggressive.addClause(c) && okA;
        okR = ref.addClause(c) && okR;
    }
    ASSERT_EQ(okA, okR);
    if (!okA)
        return;

    for (int round = 0; round < 12; ++round) {
        std::vector<Lit> assumptions;
        const int n = 1 + static_cast<int>(rng.below(4));
        for (int j = 0; j < n; ++j)
            assumptions.push_back(
                Lit(static_cast<Var>(rng.below(nvars)), rng.flip()));
        const SatResult ra = aggressive.solve(assumptions);
        const SatResult rr = ref.solve(assumptions);
        ASSERT_EQ(ra, rr) << "seed " << seed << " round " << round;
        aggressive.cancelToRoot();
        ref.cancelToRoot();
        if (aggressive.inconsistent() || ref.inconsistent()) {
            ASSERT_EQ(aggressive.inconsistent(), ref.inconsistent());
            break;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggressiveReduceDb,
                         ::testing::Range(0, 30));

} // namespace
} // namespace coppelia::sat
