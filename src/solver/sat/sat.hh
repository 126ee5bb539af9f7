/**
 * @file
 * A from-scratch CDCL SAT solver: two-watched-literal propagation (with a
 * dedicated binary-clause watcher fast path), first-UIP conflict analysis
 * with clause learning and recursive MiniSat-style learnt-clause
 * minimization, VSIDS-style activity-based decision heuristic, phase saving,
 * Luby restarts, and assumption-based incremental solving. This is the
 * decision-procedure core under the bit-vector theory layer (the
 * KLEE/STP stand-in of the reproduction).
 */

#ifndef COPPELIA_SOLVER_SAT_SAT_HH
#define COPPELIA_SOLVER_SAT_SAT_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
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
 * value() reads the model; after Unsat under assumptions, failedAssumptions()
 * lists an unsatisfiable core subset of them.
 */
class Solver
{
  public:
    Solver();

    /** Allocate a fresh variable and return its index. */
    Var newVar();

    int numVars() const { return static_cast<int>(assign_.size()); }

    /**
     * Add a clause (disjunction of literals). Returns false if the clause
     * makes the formula trivially unsatisfiable (empty after simplification
     * at level 0).
     */
    bool addClause(std::vector<Lit> lits);

    /** Convenience single/double/triple literal clauses. */
    bool addUnit(Lit a) { return addClause({a}); }
    bool addBinary(Lit a, Lit b) { return addClause({a, b}); }
    bool addTernary(Lit a, Lit b, Lit c) { return addClause({a, b, c}); }

    /**
     * Solve under the given assumptions.
     * @param conflict_budget max learned conflicts before giving up
     *        (negative = unlimited).
     */
    SatResult solve(const std::vector<Lit> &assumptions = {},
                    std::int64_t conflict_budget = -1);

    /** Model value of a variable (valid after Sat). */
    LBool value(Var v) const { return assign_[v]; }

    /** Model value of a literal. */
    LBool
    value(Lit l) const
    {
        LBool v = assign_[l.var()];
        if (v == LBool::Undef)
            return LBool::Undef;
        bool b = (v == LBool::True) != l.sign();
        return b ? LBool::True : LBool::False;
    }

    /** Assumptions that participated in the final conflict (after Unsat). */
    const std::vector<Lit> &failedAssumptions() const { return conflictCore_; }

    /** Work counters: conflicts, decisions, propagations, restarts. */
    const StatGroup &stats() const { return stats_; }

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
     */
    void resetDecisionState();

    /** Learned clauses currently retained in the database. Across
     *  incremental solve() calls this measures clause-learning reuse:
     *  learnt clauses are implied by the problem clauses alone, so they
     *  stay valid for every later query over the same database. */
    std::size_t numLearnts() const { return learnts_.size(); }

    /** Total clauses (problem + learned) ever added to the database
     *  (monotone; reduceDB marks removed learnts dead in place). */
    std::size_t numClauses() const { return clauses_.size(); }

    /**
     * Enable/disable learnt-clause minimization in analyze(). The
     * binary-clause watcher fast path rides the same switch: with it
     * off, binary clauses stay in the regular watch lists exactly as
     * the unoptimized solver keeps them, so the minimization-off
     * configuration preserves the baseline propagation order — and
     * with it the baseline witness stream — bit for bit.
     */
    void
    setMinimizeLearnts(bool on)
    {
        if (minimize_ == on)
            return;
        minimize_ = on;
        if (!clauses_.empty())
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

    // --- portfolio/diversification hooks (smt::parallel) -------------------
    // All of these default to the historical behavior, so a solver that
    // never touches them stays bit-for-bit identical to the baseline.

    /** Default phase polarity for fresh/reset variables. The baseline is
     *  all-False (the BSEE's stitching heuristics rely on it); portfolio
     *  racers diversify it. Rewrites every saved phase immediately. */
    void
    setDefaultPhase(bool positive)
    {
        defaultPhase_ = positive ? LBool::True : LBool::False;
        std::fill(savedPhase_.begin(), savedPhase_.end(), defaultPhase_);
    }

    /** Luby restart unit (conflicts per restart_limit step; baseline 100). */
    void setRestartBase(std::int64_t base) { restartBase_ = base; }

    /** VSIDS activity decay (baseline 0.95; lower = more aggressive). */
    void setVarDecay(double decay) { varDecay_ = decay; }

    /**
     * Cooperative interrupt: when @p flag becomes true, solve() returns
     * Unknown at the next conflict or decision. Used by the portfolio
     * race to kill losers once a racer has a definitive answer. Pass
     * nullptr to detach.
     */
    void setInterrupt(const std::atomic<bool> *flag) { stop_ = flag; }

    /**
     * Export learnt clauses of at most @p max_lits literals through
     * @p sink as they are learned (called from the solving thread, with
     * the clause in first-UIP order). Size-capping keeps the shared
     * stream to high-value clauses. Pass an empty function to detach.
     */
    void
    setLearntExport(std::function<void(const std::vector<Lit> &)> sink,
                    std::size_t max_lits)
    {
        learntSink_ = std::move(sink);
        learntSinkMaxLits_ = max_lits;
    }

    /**
     * Thread-safe clause import: enqueue a clause produced by another
     * racer. The queue drains at the next restart boundary (the solver
     * is at level 0 there, where addClause is legal). Sound only when
     * the exporting solver works on the same clause database plus the
     * same assumption units as this one.
     */
    void
    importClause(std::vector<Lit> lits)
    {
        std::lock_guard<std::mutex> g(importMu_);
        importQueue_.push_back(std::move(lits));
        hasImports_.store(true, std::memory_order_release);
    }

    /** Clauses drained from the import queue into the database so far. */
    std::uint64_t importedClauses() const { return importedClauses_; }

    /**
     * Replicate this solver into @p dst (which must be freshly
     * constructed): same variable numbering, root-implied units, and all live clauses (problem and learnt).
     * Must be called at decision level 0. dst ends at level 0 with the
     * same root assignments, so models read from dst line up with this
     * solver's variable numbering — the facade's model readback works
     * unchanged against a clone.
     */
    void cloneInto(Solver &dst) const;

    /** Root-level implied literals (the level-0 trail). */
    const std::vector<Lit> &
    rootUnits() const
    {
        return trail_;
    }

    /** Visit every live clause (problem and learnt); used by the
     *  cube-and-conquer splitter to score variables by occurrence. */
    void
    forEachLiveClause(
        const std::function<void(const std::vector<Lit> &)> &fn) const
    {
        for (const Clause &c : clauses_) {
            if (!c.lits.empty())
                fn(c.lits);
        }
    }

  private:
    struct Clause
    {
        std::vector<Lit> lits;
        bool learned = false;
        double activity = 0.0;
    };

    using ClauseRef = int;
    static constexpr ClauseRef NoClause = -1;

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
    void decayVarActivity() { varInc_ /= varDecay_; }
    void bumpClause(Clause &c);

    int decisionLevel() const { return static_cast<int>(trailLim_.size()); }
    static std::int64_t luby(std::int64_t i);

    bool ok_ = true;
    std::vector<Clause> clauses_;
    std::vector<ClauseRef> learnts_;
    std::vector<std::vector<Watcher>> watches_; ///< indexed by lit code
    std::vector<std::vector<BinWatcher>> binWatches_; ///< indexed by lit code
    std::vector<LBool> assign_;
    std::vector<LBool> savedPhase_;
    std::vector<VarInfo> varInfo_;
    std::vector<double> activity_;
    std::vector<Lit> trail_;
    std::vector<int> trailLim_;
    std::size_t qhead_ = 0;

    bool minimize_ = true;
    std::vector<Lit> analyzeStack_;
    std::vector<Lit> analyzeToClear_;

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

    std::vector<Lit> conflictCore_;
    std::vector<char> seen_;

    double varInc_ = 1.0;
    double varDecay_ = 0.95;
    double claInc_ = 1.0;

    // Portfolio hooks (inert at defaults; see the public setters).
    bool drainImports();
    LBool defaultPhase_ = LBool::False;
    std::int64_t restartBase_ = 100;
    const std::atomic<bool> *stop_ = nullptr;
    std::function<void(const std::vector<Lit> &)> learntSink_;
    std::size_t learntSinkMaxLits_ = 0;
    std::mutex importMu_;
    std::vector<std::vector<Lit>> importQueue_;
    std::atomic<bool> hasImports_{false};
    std::uint64_t importedClauses_ = 0;

    StatGroup stats_;
};

} // namespace coppelia::sat

#endif // COPPELIA_SOLVER_SAT_SAT_HH
