/**
 * @file
 * Tseitin bit-blasting of bit-vector terms to CNF over the CDCL SAT core.
 * Each term is lowered to a run of SAT literals, LSB first; gate outputs
 * are fresh variables constrained by the usual Tseitin clauses. Lowered
 * terms are cached per blaster instance so shared subgraphs encode once.
 *
 * Every lowered run lives in one literal pool. Two dense tables, indexed
 * by TermRef (terms are hash-consed into dense indices) and by theory
 * variable id, hold each term's and each variable's range in the pool.
 * A variable's term shares the variable's range, and an extract a
 * sub-range of its operand's, so neither copies literals.
 *
 * lower() creates a term's SAT variables consecutively, so a third
 * table holds, per term, the range of SAT variables its lowering
 * created. cone() walks a query's term DAG and returns those ranges:
 * the SAT variables of the query's cone, which the facade hands the
 * SAT core as its decision set.
 */

#ifndef COPPELIA_SOLVER_BITBLAST_HH
#define COPPELIA_SOLVER_BITBLAST_HH

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "solver/sat/sat.hh"
#include "solver/term.hh"

namespace coppelia::smt
{

/** Lowers terms into a sat::Solver instance. */
class BitBlaster
{
  public:
    /** A view of lowered literals, LSB first. It points into the pool,
     *  so it is valid only until the next blast(). */
    using Bits = std::span<const sat::Lit>;

    BitBlaster(TermManager &tm, sat::Solver &sat);

    /** Lower a term; returns a view of its literals. */
    Bits blast(TermRef ref);

    /** Assert that a width-1 term is true. */
    void assertTrue(TermRef ref);

    /**
     * The SAT variables that lowering the terms under @p roots created,
     * as ranges in the order the walk meets them, unsorted and not
     * merged. The set is closed under gate inputs: it holds every
     * variable the roots' literals depend on except the constant-true
     * one, which is assigned at level 0. Every root must have been
     * blasted. The view is valid until the next cone() call.
     */
    std::span<const sat::VarRange> cone(std::span<const TermRef> roots);

    /** SAT literals allocated for a theory variable (for model readback);
     *  empty if the variable never appeared in an asserted term. */
    Bits varLits(int var_id) const;

    /** Top-level blast() requests answered from the term cache. Over a
     *  persistent blaster this is the incremental-reuse measure: a hit
     *  means a whole term DAG was already in CNF from an earlier query. */
    std::uint64_t cacheHits() const { return cacheHits_; }

    /** Term nodes newly lowered to CNF (cache misses, counted per node). */
    std::uint64_t termsLowered() const { return termsLowered_; }

  private:
    /** Where a lowered term's or variable's literals sit in the pool. */
    struct Range
    {
        static constexpr std::uint32_t kNone = ~std::uint32_t(0);
        std::uint32_t offset = kNone; ///< kNone: not lowered yet
        std::uint32_t width = 0;
    };

    // Gate constructors returning the output literal.
    sat::Lit mkAnd(sat::Lit a, sat::Lit b);
    sat::Lit mkOr(sat::Lit a, sat::Lit b);
    sat::Lit mkXor(sat::Lit a, sat::Lit b);
    sat::Lit mkMux(sat::Lit s, sat::Lit t, sat::Lit e);
    sat::Lit trueLit() const { return trueLit_; }
    sat::Lit falseLit() const { return ~trueLit_; }
    sat::Lit fresh();

    /** Ripple-carry add: out = a + b + cin; returns carry-out. */
    sat::Lit adder(Bits a, Bits b, sat::Lit cin, std::vector<sat::Lit> &out);

    /** Unsigned less-than via borrow chain. */
    sat::Lit ultChain(Bits a, Bits b);

    bool
    lowered(TermRef ref) const
    {
        return termRange_[ref].offset != Range::kNone;
    }
    Bits
    bits(Range r) const
    {
        return Bits(pool_).subspan(r.offset, r.width);
    }
    /** Append @p lits to the pool and return their range. */
    Range append(const std::vector<sat::Lit> &lits);

    /** Lower one term whose operands are already lowered. */
    Range lower(const Term &t);

    TermManager &tm_;
    sat::Solver &sat_;
    sat::Lit trueLit_;
    std::vector<sat::Lit> pool_;    ///< every lowered literal run
    std::vector<Range> termRange_;  ///< indexed by TermRef
    std::vector<Range> varRange_;   ///< indexed by theory variable id
    /** Indexed by TermRef: the SAT variables lower() created for it. */
    std::vector<sat::VarRange> termVars_;
    std::vector<sat::Lit> out_;     ///< lower()'s output, reused
    std::vector<std::pair<TermRef, bool>> stack_; ///< blast()'s, reused
    // cone()'s walk: a term is visited when its mark equals the epoch.
    std::vector<std::uint32_t> coneMark_; ///< indexed by TermRef
    std::uint32_t coneEpoch_ = 0;
    std::vector<TermRef> coneStack_;
    std::vector<sat::VarRange> cone_; ///< cone()'s result, reused
    std::uint64_t cacheHits_ = 0;
    std::uint64_t termsLowered_ = 0;
};

} // namespace coppelia::smt

#endif // COPPELIA_SOLVER_BITBLAST_HH
