/**
 * @file
 * A from-scratch CDCL SAT solver: two-watched-literal propagation (with a
 * dedicated binary-clause watcher fast path), first-UIP conflict analysis
 * with clause learning and recursive MiniSat-style learnt-clause
 * minimization, VSIDS-style activity-based decision heuristic, phase saving,
 * Luby restarts, and assumption-based incremental solving. This is the
 * decision-procedure core under the bit-vector theory layer (the
 * KLEE/STP stand-in of the reproduction).
 *
 * An incremental caller can restrict decisions to a set of variables,
 * given as ranges (resetDecisionState): only those enter the decision
 * heap, and solve() answers Sat once they are all assigned and
 * propagation is quiet, leaving the rest unassigned. The SMT facade
 * hands it the SAT variables of the query's term cone, so a query on a
 * persistent instance leaves earlier queries' circuits unassigned. A
 * fresh solver decides every variable.
 *
 * Memory is laid out flat, as in MiniSat (Een & Sorensson, SAT 2003):
 * every clause lives in one word arena, addressed by its offset, as a
 * header word (size, learnt, deleted), the literal codes inline, and for
 * a learnt clause its activity; assignments are kept per literal, so
 * reading a literal's value is one load; work counters are plain
 * integers. Deleted learnt clauses leave dead words behind, and the
 * arena is compacted in clause order once they make up half of it.
 */

#ifndef COPPELIA_SOLVER_SAT_SAT_HH
#define COPPELIA_SOLVER_SAT_SAT_HH

#include <cstdint>
#include <span>
#include <vector>

#include "util/stats.hh"

namespace coppelia::sat
{

/** Variable index, 0-based. */
using Var = int;

/**
 * A literal encodes a variable and a sign: lit = 2*var + (negated ? 1 : 0).
 */
class Lit
{
  public:
    Lit() : code_(-2) {}
    Lit(Var v, bool negated) : code_(2 * v + (negated ? 1 : 0)) {}

    Var var() const { return code_ >> 1; }
    bool sign() const { return code_ & 1; } ///< true = negated
    Lit operator~() const { return fromCode(code_ ^ 1); }
    int code() const { return code_; }

    bool operator==(const Lit &o) const { return code_ == o.code_; }
    bool operator!=(const Lit &o) const { return code_ != o.code_; }

    static Lit
    fromCode(int code)
    {
        Lit l;
        l.code_ = code;
        return l;
    }

    static Lit undef() { return Lit(); }
    bool isUndef() const { return code_ < 0; }

  private:
    int code_;
};

/** The variables [begin, end). */
struct VarRange
{
    Var begin = 0;
    Var end = 0;
};

/** Three-valued assignment. */
enum class LBool : std::int8_t
{
    False = 0,
    True = 1,
    Undef = 2,
};

/** Result of a solve call. */
enum class SatResult
{
    Sat,
    Unsat,
    Unknown, ///< resource limit hit
};

/**
 * The CDCL solver. Usage: newVar() to allocate variables, addClause() to
 * install the problem, then solve() possibly with assumptions. After Sat,
 * value() reads the model (every decision variable is assigned); after
 * Unsat under assumptions, failedAssumptions() lists an unsatisfiable
 * core subset of them.
 */
class Solver
{
  public:
    /** Work done over the solver's lifetime, one field per counter. */
    struct Counters
    {
        std::uint64_t conflicts = 0;
        std::uint64_t decisions = 0;
        std::uint64_t propagations = 0; ///< literals propagate() dequeued
        std::uint64_t restarts = 0;
        std::uint64_t assumptionDecisions = 0;
        std::uint64_t learntLitsSaved = 0; ///< removed by minimization
        std::uint64_t clausesDeleted = 0;  ///< learnt clauses reduceDB dropped
    };

    Solver();

    /** Allocate a fresh variable and return its index. */
    Var newVar();

    int numVars() const { return static_cast<int>(varInfo_.size()); }

    /**
     * Add a clause (disjunction of literals). Returns false if the clause
     * makes the formula trivially unsatisfiable (empty after simplification
     * at level 0).
     */
    bool addClause(std::span<const Lit> lits);

    /** Convenience single/double/triple literal clauses; they allocate
     *  nothing beyond the clause's own arena words. */
    bool
    addUnit(Lit a)
    {
        const Lit lits[] = {a};
        return addClause(lits);
    }
    bool
    addBinary(Lit a, Lit b)
    {
        const Lit lits[] = {a, b};
        return addClause(lits);
    }
    bool
    addTernary(Lit a, Lit b, Lit c)
    {
        const Lit lits[] = {a, b, c};
        return addClause(lits);
    }

    /**
     * Solve under the given assumptions. Sat means every decision
     * variable is assigned and propagation found no conflict; variables
     * outside the decision set may be left unassigned.
     * @param conflict_budget max learned conflicts before giving up
     *        (negative = unlimited).
     */
    SatResult solve(const std::vector<Lit> &assumptions = {},
                    std::int64_t conflict_budget = -1);

    /** Model value of a variable (valid after Sat). */
    LBool value(Var v) const { return value(Lit(v, false)); }

    /** Model value of a literal. */
    LBool value(Lit l) const { return litValue_[l.code()]; }

    /** Assumptions that participated in the final conflict (after Unsat). */
    const std::vector<Lit> &failedAssumptions() const { return conflictCore_; }

    /** Work counters, read directly. */
    const Counters &counters() const { return counters_; }

    /** The same counters by name: conflicts, decisions, propagations,
     *  restarts, assumption_decisions, learnt_lits_saved,
     *  clauses_deleted. */
    StatGroup stats() const;

    /** True if the clause database is already unsat at level 0. */
    bool inconsistent() const { return !ok_; }

    /**
     * Backtrack to decision level 0, invalidating the current model.
     * Incremental callers must do this after reading a Sat model and
     * before adding the next query's clauses (addClause requires the
     * root level; only DB-implied level-0 units survive).
     */
    void cancelToRoot() { cancelUntil(0); }

    /**
     * Reset the decision heuristics — variable activities, saved phases,
     * and the decision-heap order — to the state a fresh solver starts
     * from, keeping the clause database (problem and learned clauses)
     * and level-0 assignments. Incremental callers run this per query:
     * phase saving otherwise reproduces the previous query's model, and
     * callers that steer by model content (the BSEE stitches registers
     * whose model values stay near reset, i.e. mostly zero) need the
     * fresh solver's all-False phase bias, not last query's witness.
     *
     * Only the variables in @p decide may be decided until the next
     * reset; variables created after it may be decided too. A Sat
     * answer then assigns the decision set and may leave the rest
     * unassigned. That is sound when the set is closed under the
     * clauses that define it, as a term cone of Tseitin gates is: every
     * variable outside it is a free input, which may take any value, or
     * a gate, which takes the value its inputs give it.
     *
     * A reset touches the variables the last query bumped, the old and
     * the new decision set and the heap, not the whole instance.
     */
    void resetDecisionState(std::span<const VarRange> decide);

    /** The reset above with every variable in the decision set, as in a
     *  fresh solver. */
    void
    resetDecisionState()
    {
        const VarRange all{0, numVars()};
        resetDecisionState({&all, 1});
    }

    /** Learned clauses currently retained in the database. Across
     *  incremental solve() calls this measures clause-learning reuse:
     *  learnt clauses are implied by the problem clauses alone, so they
     *  stay valid for every later query over the same database. */
    std::size_t numLearnts() const { return learnts_.size(); }

    /** Words the clause arena holds, and the share of them that belongs
     *  to live (not deleted) clauses. Compaction keeps the first within
     *  twice the second. */
    std::size_t arenaWords() const { return arena_.size(); }
    std::size_t liveClauseWords() const { return arena_.size() - deadWords_; }

    /**
     * Enable/disable learnt-clause minimization in analyze(). The
     * binary-clause watcher fast path rides the same switch: with it
     * off, binary clauses stay in the regular watch lists, so the
     * minimization-off configuration propagates in the order of a
     * solver without the fast path.
     */
    void
    setMinimizeLearnts(bool on)
    {
        if (minimize_ == on)
            return;
        minimize_ = on;
        if (!arena_.empty())
            rebuildWatches(); // migrate binaries between list kinds
    }

    /**
     * Tune the reduceDB trigger: fires when
     * learnts > (live problem + learnt clauses) * factor + margin +
     * trail size. The defaults reproduce the historical policy; tests
     * lower them to stress reason-clause safety under aggressive
     * reduction.
     */
    void
    setReduceDbPolicy(double factor, std::size_t margin)
    {
        reduceDbFactor_ = factor;
        reduceDbMargin_ = margin;
    }

  private:
    /** Offset of a clause's header word in arena_. */
    using ClauseRef = std::uint32_t;
    static constexpr ClauseRef NoClause = ~ClauseRef(0);

    // Header word: size << 2 | deleted << 1 | learnt.
    static constexpr std::uint32_t kLearnt = 1;
    static constexpr std::uint32_t kDeleted = 2;
    /** Words a learnt clause's activity (a double) takes after its
     *  literals. */
    static constexpr std::size_t kActivityWords =
        sizeof(double) / sizeof(std::uint32_t);

    struct Watcher
    {
        ClauseRef cref;
        Lit blocker;
    };

    /** Binary-clause watcher: the whole clause is (other, watched-lit),
     *  so propagation needs no clause dereference at all. */
    struct BinWatcher
    {
        Lit other;
        ClauseRef cref;
    };

    struct VarInfo
    {
        ClauseRef reason = NoClause;
        int level = 0;
    };

    // Clause arena access. A pointer into arena_ is valid only until the
    // next append (addClause, a learnt clause) or compaction.
    std::uint32_t clauseSize(ClauseRef cr) const { return arena_[cr] >> 2; }
    bool isLearnt(ClauseRef cr) const { return arena_[cr] & kLearnt; }
    Lit
    lit(ClauseRef cr, std::uint32_t k) const
    {
        return Lit::fromCode(static_cast<int>(arena_[cr + 1 + k]));
    }
    double activity(ClauseRef cr) const;
    void setActivity(ClauseRef cr, double a);
    /** Words the clause with header @p hdr spans: header, literals,
     *  activity. */
    static std::size_t
    clauseWords(std::uint32_t hdr)
    {
        return 1 + (hdr >> 2) + ((hdr & kLearnt) ? kActivityWords : 0);
    }
    ClauseRef allocClause(std::span<const Lit> lits, bool learnt);

    // Core CDCL steps.
    ClauseRef propagate();
    void analyze(ClauseRef confl, std::vector<Lit> &out_learnt,
                 int &out_btlevel);
    bool litRedundant(Lit p, std::uint32_t abstract_levels);
    void analyzeFinal(Lit p);
    void enqueue(Lit p, ClauseRef from);
    void cancelUntil(int level);
    Lit pickBranchLit();
    void attachClause(ClauseRef cref);
    void reduceDB();
    /** Copy the live clauses, in order, into a fresh arena and remap
     *  every watcher, reason and learnts_ entry to the new offsets. */
    void compactArena();

    std::uint32_t
    abstractLevel(Var v) const
    {
        return 1u << (varInfo_[v].level & 31);
    }

    /** Re-attach every live clause; the next propagate() re-visits the
     *  whole trail over the new lists. */
    void rebuildWatches();

    // Activity bookkeeping.
    void bumpVar(Var v);
    void decayVarActivity() { varInc_ /= kVarDecay; }
    void bumpClause(ClauseRef cr);

    int decisionLevel() const { return static_cast<int>(trailLim_.size()); }
    static std::int64_t luby(std::int64_t i);

    bool ok_ = true;
    std::vector<std::uint32_t> arena_; ///< every clause, back to back
    std::size_t deadWords_ = 0;        ///< words of deleted clauses
    std::vector<ClauseRef> learnts_;
    std::vector<std::vector<Watcher>> watches_; ///< indexed by lit code
    std::vector<std::vector<BinWatcher>> binWatches_; ///< indexed by lit code
    std::vector<LBool> litValue_; ///< indexed by lit code
    /** Saved only for the decision set: a variable outside it keeps
     *  False until a reset puts it in. */
    std::vector<LBool> savedPhase_;
    std::vector<VarInfo> varInfo_;
    std::vector<double> activity_;
    /** Every variable whose activity is nonzero (bumped since the last
     *  reset), so a reset zeroes only those. */
    std::vector<Var> bumped_;
    std::vector<Lit> trail_;
    std::vector<int> trailLim_;
    std::size_t qhead_ = 0;

    bool minimize_ = true;
    std::vector<Lit> analyzeStack_;
    std::vector<Lit> analyzeToClear_;
    std::vector<Lit> learnt_;    ///< analyze()'s output, reused
    std::vector<Lit> addBuffer_; ///< addClause()'s simplified copy, reused

    std::size_t liveProblemClauses_ = 0; ///< maintained by addClause

    double reduceDbFactor_ = 0.5;
    std::size_t reduceDbMargin_ = 1000;

    // Activity-ordered decision heap (MiniSat-style VarOrder).
    void heapInsert(Var v);
    void heapUpdate(Var v);
    Var heapPop();
    void siftUp(int i);
    void siftDown(int i);
    std::vector<Var> heap_;
    std::vector<int> heapPos_; ///< -1 when not in heap
    /** 1 for a variable in the decision set: only those enter heap_. */
    std::vector<char> decide_;
    /** The decision set since the last reset: its ranges, sorted by
     *  start, and every variable from varsAtReset_ on. */
    std::vector<VarRange> decideRanges_;
    Var varsAtReset_ = 0;

    std::vector<Lit> conflictCore_;
    std::vector<char> seen_;

    double varInc_ = 1.0;
    static constexpr double kVarDecay = 0.95; ///< VSIDS activity decay
    double claInc_ = 1.0;
    /** Conflicts per Luby restart unit. */
    static constexpr std::int64_t kRestartBase = 100;

    Counters counters_;
};

} // namespace coppelia::sat

#endif // COPPELIA_SOLVER_SAT_SAT_HH
