/**
 * @file
 * Word-level fixpoint rewriter over the hash-consed term DAG. The
 * TermManager's mk* constructors already fold constants and apply the
 * local identities cheap enough to run at construction time; this pass
 * layers the rules that need a whole-node view on top of them —
 * absorption/annihilator chains, ITE collapsing, comparison
 * normalization through concat/zext/add/xor, extract/concat fusion,
 * and strength reduction of constant shifts and power-of-two
 * multiplies to pure wiring — and drives them to a fixpoint.
 *
 * Rewritten terms are rebuilt bottom-up through the simplifying
 * constructors, so every result re-enters the existing hash-consing
 * table and downstream consumers (the bit-blaster cache, the query
 * cache) see ordinary shared TermRefs. The ref -> ref memo is
 * persistent across calls, mirroring the blast cache: over the BSE
 * engine's thousands of closely-related incremental queries each
 * shared subgraph is rewritten once.
 */

#ifndef COPPELIA_SOLVER_REWRITE_HH
#define COPPELIA_SOLVER_REWRITE_HH

#include <cstdint>
#include <unordered_map>

#include "solver/term.hh"

namespace coppelia::smt
{

/** Fixpoint rule engine over one TermManager's term arena. */
class Rewriter
{
  public:
    explicit Rewriter(TermManager &tm) : tm_(tm) {}

    /**
     * Rewrite @p ref to fixpoint (width-preserving, semantics-
     * preserving). Results are memoized for the lifetime of the
     * Rewriter; TermRefs are stable because the arena only grows.
     */
    TermRef rewrite(TermRef ref);

    /** Rules applied so far (a hit = one rule rewrote one node). */
    std::uint64_t ruleHits() const { return ruleHits_; }

    /** rewrite() requests answered from the cross-query memo. */
    std::uint64_t memoHits() const { return memoHits_; }

  private:
    /** Apply top-node rules to fixpoint (bounded); children of @p ref
     *  must already be rewritten. */
    TermRef rewriteTop(TermRef ref);

    /** One rule application at the top node; NoTerm when none fires. */
    TermRef step(TermRef ref);

    /** rewriteTop for nodes a rule just built (depth-bounded). It does
     *  not consult or fill memo_, so a node a rule rebuilds is rewritten
     *  again each time; with the extract-distribution rules, which build
     *  a narrower copy of a shared sub-DAG per slice, this is why the
     *  stage inflates rather than shrinks the blasted formula (see
     *  DESIGN.md "Simplification stack"). */
    TermRef
    rw(TermRef ref)
    {
        return rewriteTop(ref);
    }

    /** True when x == ~y structurally (either direction). */
    bool complementary(TermRef x, TermRef y) const;

    // Per-operator rule sets (split for readability; each returns
    // NoTerm when no rule fires).
    TermRef stepAnd(const Term &t);
    TermRef stepOr(const Term &t);
    TermRef stepXor(const Term &t);
    TermRef stepNot(const Term &t);
    TermRef stepArith(const Term &t);
    TermRef stepShift(const Term &t);
    TermRef stepCompare(const Term &t);
    TermRef stepIte(const Term &t);
    TermRef stepReduce(const Term &t);
    TermRef stepStructure(const Term &t); ///< concat/extract/zext/sext

    TermManager &tm_;
    std::unordered_map<TermRef, TermRef> memo_;
    std::uint64_t ruleHits_ = 0;
    std::uint64_t memoHits_ = 0;
    int depth_ = 0;
};

} // namespace coppelia::smt

#endif // COPPELIA_SOLVER_REWRITE_HH
