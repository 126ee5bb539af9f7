/**
 * @file
 * Lowering of RTL expressions to solver terms under a signal binding and a
 * set of branch decisions. This is the per-path translation step of the
 * symbolic executor: inputs and registers are bound to terms (symbolic
 * variables, stitched constants, or reset constants), wires are expanded
 * through their definitions, data muxes become if-then-else terms, and
 * control branches (Design::isBranch) consult the path's decisions —
 * an undecided control branch suspends lowering and reports the decision
 * point so the executor can fork. The memo outlives one path: the
 * executor moves one Lowering from path to path (Lowering::switchPath).
 */

#ifndef COPPELIA_SYM_LOWER_HH
#define COPPELIA_SYM_LOWER_HH

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "rtl/design.hh"
#include "solver/term.hh"

namespace coppelia::sym
{

/** Binding of input/register signals to terms. */
using Binding = std::unordered_map<rtl::SignalId, smt::TermRef>;

/** Branch decisions accumulated along a path: each decided control
 *  branch (its Ite ExprRef) and the arm taken, in the order decided. A
 *  path decides a few dozen branches at most, so a linear lookup is
 *  enough, and a fork copies the list in one allocation. */
using Decisions = std::vector<std::pair<rtl::ExprRef, bool>>;

/** A suspended lowering: the control branch that needs a decision. */
struct PendingBranch
{
    rtl::ExprRef ite = rtl::NoExpr; ///< the branch node
    smt::TermRef cond = smt::NoTerm; ///< its lowered condition
};

/**
 * Lowering through one memo that outlives a path. The cycle explorer
 * keeps one per exploration and moves it from path to path with
 * switchPath(); every other caller lowers under no decisions at all.
 *
 * Each memo entry records the prefix level it read: 0 if it consulted no
 * decision, otherwise 1 + the index of the deepest decision it consulted.
 * switchPath() keeps every entry whose level lies within the prefix the
 * old and new paths share, and invalidates the rest by bumping the epoch
 * of each level beyond that prefix. An undecided branch suspends the
 * lowering and a suspended node memoizes nothing, so a kept entry holds
 * the term a fresh lowering of the new path would build.
 */
class Lowering
{
  public:
    /**
     * @param binding must outlive the Lowering
     * @param branches_as_ite treat control branches as plain if-then-else
     *        terms instead of suspension points (used by the BMC baseline
     *        to build a monolithic transition relation).
     */
    Lowering(const rtl::Design &design, smt::TermManager &tm,
             const Binding &binding, bool branches_as_ite = false);

    /**
     * Lower under @p decisions from now on (a fresh Lowering has none, so
     * an undecided control branch suspends at once). Keeps the memo
     * entries that read only decisions shared with the previous path.
     */
    void switchPath(const Decisions &decisions);

    /**
     * Lower an expression. Returns the term, or std::nullopt if an
     * undecided control branch was hit (see pending()).
     */
    std::optional<smt::TermRef> lower(rtl::ExprRef ref);

    /** Lower the current-cycle value of a signal (expanding wires). */
    std::optional<smt::TermRef> lowerSignal(rtl::SignalId sig);

    /** The undecided branch that suspended the last lower() call. */
    const PendingBranch &pending() const { return pending_; }

    /** Expression nodes lowered so far, i.e. the memo's misses. */
    std::uint64_t lowered() const { return lowered_; }

  private:
    /** A memoized term, live while its level's epoch is unchanged. */
    struct Entry
    {
        smt::TermRef term = smt::NoTerm;
        std::uint32_t level = 0;
        std::uint32_t epoch = 0;
    };

    std::optional<smt::TermRef> lowerRec(rtl::ExprRef ref);
    std::optional<smt::TermRef> lowerSignalRec(rtl::SignalId sig);
    /** Whether no switchPath() has moved @p entry's level since. */
    bool live(const Entry &entry) const
    {
        return entry.epoch == epochs_[entry.level];
    }
    /** The term of a live entry; folds its level into level_. */
    smt::TermRef read(const Entry &entry);
    /** The entry for a node just lowered to @p term at level_; then
     *  folds level_ into @p outer, the enclosing node's level. */
    Entry settle(smt::TermRef term, std::uint32_t outer);

    const rtl::Design &design_;
    smt::TermManager &tm_;
    const Binding &binding_;
    Decisions path_;
    /** One epoch per prefix level; a level's entries die when it moves. */
    std::vector<std::uint32_t> epochs_{0};
    /** Deepest prefix level the node being lowered has read so far. */
    std::uint32_t level_ = 0;
    std::unordered_map<rtl::ExprRef, Entry> exprMemo_;
    std::unordered_map<rtl::SignalId, Entry> sigMemo_;
    PendingBranch pending_;
    std::uint64_t lowered_ = 0;
    bool branchesAsIte_ = false;
};

} // namespace coppelia::sym

#endif // COPPELIA_SYM_LOWER_HH
