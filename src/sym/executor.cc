#include "sym/executor.hh"

#include "trace/trace.hh"
#include "util/logging.hh"
#include "util/timer.hh"

namespace coppelia::sym
{

using rtl::SignalId;
using smt::TermRef;

const char *
searchModeName(SearchMode mode)
{
    switch (mode) {
      case SearchMode::BFS: return "bfs";
      case SearchMode::DFS: return "dfs";
      case SearchMode::Random: return "random";
      case SearchMode::Hybrid: return "hybrid";
    }
    return "?";
}

Searcher::Searcher(SearchMode mode, int bfs_quota, int dfs_quota,
                   std::uint64_t seed)
    : mode_(mode), bfsQuota_(bfs_quota), dfsQuota_(dfs_quota),
      phaseRemaining_(bfs_quota), rng_(seed)
{}

void
Searcher::push(PathState state)
{
    frontier_.push_back(std::move(state));
}

PathState
Searcher::pop()
{
    if (frontier_.empty())
        panic("Searcher::pop on empty frontier");

    auto pop_front = [this] {
        PathState s = std::move(frontier_.front());
        frontier_.pop_front();
        return s;
    };
    auto pop_back = [this] {
        PathState s = std::move(frontier_.back());
        frontier_.pop_back();
        return s;
    };

    switch (mode_) {
      case SearchMode::BFS:
        return pop_front();
      case SearchMode::DFS:
        return pop_back();
      case SearchMode::Random: {
        std::size_t idx = rng_.below(frontier_.size());
        std::swap(frontier_[idx], frontier_.back());
        return pop_back();
      }
      case SearchMode::Hybrid: {
        // Alternate phases: bfsQuota_ front-pops, then dfsQuota_ back-pops.
        if (phaseRemaining_ == 0) {
            inBfsPhase_ = !inBfsPhase_;
            phaseRemaining_ = inBfsPhase_ ? bfsQuota_ : dfsQuota_;
        }
        --phaseRemaining_;
        return inBfsPhase_ ? pop_front() : pop_back();
      }
    }
    panic("unreachable search mode");
}

CycleExplorer::CycleExplorer(const rtl::Design &design, smt::TermManager &tm,
                             ExplorerOptions opts)
    : design_(design), tm_(tm), opts_(opts)
{}

bool
CycleExplorer::explore(const Binding &binding,
                       const std::vector<SignalId> &root_regs,
                       const std::vector<TermRef> &preconditions,
                       const LeafCallback &on_leaf)
{
    trace::Span span("sym.explore", "sym");
    Timer timer;
    Searcher searcher(opts_.search, opts_.bfsQuota, opts_.dfsQuota,
                      opts_.seed);
    PathState initial;
    initial.pathCond = preconditions;
    searcher.push(std::move(initial));

    std::uint64_t leaves = 0;
    // One lowering serves every popped state of this exploration.
    Lowering lowering(design_, tm_, binding);
    auto finish = [&](bool completed) {
        stats_.inc("lowered_nodes", lowering.lowered());
        return completed;
    };

    while (!searcher.empty()) {
        if (opts_.maxLeaves && leaves >= opts_.maxLeaves) {
            stats_.inc("stopped_max_leaves");
            return finish(false);
        }
        if (opts_.timeLimitSeconds > 0 &&
            timer.seconds() > opts_.timeLimitSeconds) {
            stats_.inc("stopped_time_limit");
            return finish(false);
        }

        PathState state = searcher.pop();
        // The popped state's lowering reuses every memo entry built from
        // decisions it shares with the previous one, and lowers the rest.
        trace::Span lower_span("sym.lower", "sym");
        lowering.switchPath(state.decisions);

        // Lower every root register's next-state expression. A suspended
        // lowering means an undecided control branch: fork.
        bool suspended = false;
        std::unordered_map<SignalId, TermRef> next_regs;
        for (SignalId sig : root_regs) {
            const rtl::Signal &s = design_.signal(sig);
            if (s.kind != rtl::SignalKind::Register)
                fatal("explore root ", s.name, " is not a register");
            if (s.def == rtl::NoExpr) {
                // Register holds its value.
                auto held = lowering.lowerSignal(sig);
                if (!held) {
                    suspended = true;
                    break;
                }
                next_regs[sig] = *held;
                continue;
            }
            auto t = lowering.lower(s.def);
            if (!t) {
                suspended = true;
                break;
            }
            next_regs[sig] = *t;
        }
        lower_span.close();

        if (!suspended) {
            ++leaves;
            stats_.inc("leaves");
            Leaf leaf;
            leaf.pathCond = std::move(state.pathCond);
            leaf.nextRegs = std::move(next_regs);
            if (!on_leaf(leaf)) {
                stats_.inc("stopped_by_callback");
                return finish(false);
            }
            continue;
        }

        const PendingBranch &pb = lowering.pending();
        if (pb.ite == rtl::NoExpr)
            panic("lowering suspended without a pending branch");

        // Both children go on the frontier unasked: a leaf's callers
        // conjoin its path condition into every query they make, so an
        // infeasible path answers Unsat there. The taken child inherits
        // the parent's containers.
        stats_.inc("forks");
        PathState not_taken;
        not_taken.decisions = state.decisions;
        not_taken.decisions.emplace_back(pb.ite, false);
        not_taken.pathCond = state.pathCond;
        not_taken.pathCond.push_back(tm_.mkNot(pb.cond));
        searcher.push(std::move(not_taken));

        state.decisions.emplace_back(pb.ite, true);
        state.pathCond.push_back(pb.cond);
        searcher.push(std::move(state));
    }
    stats_.inc("completed_explorations");
    return finish(true);
}

} // namespace coppelia::sym
