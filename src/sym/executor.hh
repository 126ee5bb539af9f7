/**
 * @file
 * One-clock-cycle symbolic exploration of an RTL design (the paper's
 * "symbolic exploration tree" of §II-C). The root of the tree is a binding
 * of inputs and registers to terms; paths fork at control branches; each
 * leaf carries a path condition and the next-state terms of the explored
 * registers.
 *
 * The explorer enumerates paths and asks no solver: both children of a
 * fork are explored, so a leaf's path condition may be unsatisfiable.
 * Callers decide feasibility: each query they make about a leaf
 * conjoins its path condition, so an infeasible leaf answers Unsat
 * there. A hardware decode tree is almost never infeasible, and asking
 * about every fork cost more than the few paths it cut.
 *
 * One sym::Lowering serves a whole exploration. Each popped path hands
 * it its decisions through Lowering::switchPath, which keeps every memo
 * entry built from decisions the path shares with the one before, so a
 * path lowers only what its own decisions change.
 *
 * A pluggable Searcher orders the frontier: breadth-first, depth-first,
 * random, or the paper's hybrid interleaving of BFS and DFS with fixed
 * quotas (§II-E2: BFS to touch many instructions quickly, DFS to push
 * individual instructions deep; DFS gets the larger quota).
 */

#ifndef COPPELIA_SYM_EXECUTOR_HH
#define COPPELIA_SYM_EXECUTOR_HH

#include <deque>
#include <functional>
#include <vector>

#include "rtl/design.hh"
#include "sym/lower.hh"
#include "util/rng.hh"
#include "util/stats.hh"

namespace coppelia::sym
{

/** Frontier ordering strategy. */
enum class SearchMode
{
    BFS,
    DFS,
    Random,
    Hybrid,
};

const char *searchModeName(SearchMode mode);

/** Explorer configuration. */
struct ExplorerOptions
{
    SearchMode search = SearchMode::Hybrid;
    /** Hybrid quotas: consecutive BFS picks, then consecutive DFS picks.
     *  The paper uses 10,000 / 500,000; defaults here are scaled to our
     *  design sizes but keep the BFS < DFS ratio. */
    int bfsQuota = 10;
    int dfsQuota = 500;
    /** Resource limits (0 = unlimited). */
    std::uint64_t maxLeaves = 0;
    double timeLimitSeconds = 0.0;
    std::uint64_t seed = 1;
};

/** A pending path through the cycle's exploration tree. */
struct PathState
{
    Decisions decisions;
    std::vector<smt::TermRef> pathCond;
};

/** A completed path: the tree leaf of §II-C. */
struct Leaf
{
    std::vector<smt::TermRef> pathCond;
    /** Next-state term for each explored register, indexed by SignalId. */
    std::unordered_map<rtl::SignalId, smt::TermRef> nextRegs;
};

/** Frontier with pluggable ordering. */
class Searcher
{
  public:
    Searcher(SearchMode mode, int bfs_quota, int dfs_quota,
             std::uint64_t seed);

    void push(PathState state);
    PathState pop();
    bool empty() const { return frontier_.empty(); }
    std::size_t size() const { return frontier_.size(); }

  private:
    SearchMode mode_;
    int bfsQuota_;
    int dfsQuota_;
    int phaseRemaining_;
    bool inBfsPhase_ = true;
    std::deque<PathState> frontier_;
    Rng rng_;
};

/**
 * Explores the design for one clock cycle from a symbolic root state.
 * Every fork pushes both children; no path is pruned. The caller
 * provides:
 *  - a Binding for every input and every explored register,
 *  - the set of root registers whose next-state logic to explore,
 *  - optional precondition terms conjoined to every path condition
 *    (preconditioned symbolic execution, §II-E1),
 *  - a leaf callback; returning false stops the exploration.
 */
class CycleExplorer
{
  public:
    /** Callback per completed leaf; return false to stop exploring. */
    using LeafCallback = std::function<bool(const Leaf &)>;

    CycleExplorer(const rtl::Design &design, smt::TermManager &tm,
                  ExplorerOptions opts = {});

    /**
     * Run the exploration.
     * @param binding terms for inputs and registers
     * @param root_regs registers whose next-state expressions to explore
     * @param preconditions conjoined to all path conditions
     * @param on_leaf invoked per leaf
     * @return true if exploration ran to completion (frontier exhausted),
     *         false if stopped by the callback or a resource limit
     */
    bool explore(const Binding &binding,
                 const std::vector<rtl::SignalId> &root_regs,
                 const std::vector<smt::TermRef> &preconditions,
                 const LeafCallback &on_leaf);

    /** Work counters: forks, leaves, lowered_nodes (expression nodes
     *  lowered, i.e. memo misses), and why an exploration stopped. */
    const StatGroup &stats() const { return stats_; }

  private:
    const rtl::Design &design_;
    smt::TermManager &tm_;
    ExplorerOptions opts_;
    StatGroup stats_;
};

} // namespace coppelia::sym

#endif // COPPELIA_SYM_EXECUTOR_HH
