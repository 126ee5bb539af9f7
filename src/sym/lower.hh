/**
 * @file
 * Lowering of RTL expressions to solver terms under a signal binding and a
 * set of branch decisions. This is the per-path translation step of the
 * symbolic executor: inputs and registers are bound to terms (symbolic
 * variables, stitched constants, or reset constants), wires are expanded
 * through their definitions, data muxes become if-then-else terms, and
 * control branches (Design::isBranch) consult the path's decision map —
 * an undecided control branch suspends lowering and reports the decision
 * point so the executor can fork.
 */

#ifndef COPPELIA_SYM_LOWER_HH
#define COPPELIA_SYM_LOWER_HH

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
 * One lowering pass. Create per path-execution attempt; memoizes expression
 * and wire translations for the lifetime of the object (valid only for a
 * fixed decision map).
 */
class Lowering
{
  public:
    /**
     * @param binding must outlive the Lowering
     * @param decisions the path's branch decisions, or nullptr for none
     *        (an undecided control branch then suspends at once); when
     *        given, must outlive the Lowering
     * @param branches_as_ite treat control branches as plain if-then-else
     *        terms instead of suspension points (used by the BMC baseline
     *        to build a monolithic transition relation).
     */
    Lowering(const rtl::Design &design, smt::TermManager &tm,
             const Binding &binding, const Decisions *decisions = nullptr,
             bool branches_as_ite = false);

    /**
     * Lower an expression. Returns the term, or std::nullopt if an
     * undecided control branch was hit (see pending()).
     */
    std::optional<smt::TermRef> lower(rtl::ExprRef ref);

    /** Lower the current-cycle value of a signal (expanding wires). */
    std::optional<smt::TermRef> lowerSignal(rtl::SignalId sig);

    /** The undecided branch that suspended the last lower() call. */
    const PendingBranch &pending() const { return pending_; }

  private:
    std::optional<smt::TermRef> lowerRec(rtl::ExprRef ref);

    const rtl::Design &design_;
    smt::TermManager &tm_;
    const Binding &binding_;
    const Decisions *decisions_; ///< never null
    std::unordered_map<rtl::ExprRef, smt::TermRef> exprMemo_;
    std::unordered_map<rtl::SignalId, smt::TermRef> sigMemo_;
    PendingBranch pending_;
    bool branchesAsIte_ = false;
};

} // namespace coppelia::sym

#endif // COPPELIA_SYM_LOWER_HH
