/**
 * @file
 * Hash-consed bit-vector term DAG with a rewriting simplifier applied at
 * construction time. This is the theory layer of the reproduction's solver
 * stack (the KLEE-expression/STP stand-in). Terms are immutable, deduplicated
 * structurally, and referenced by TermRef into the owning TermManager.
 *
 * Construction-time simplification performs constant folding and the
 * algebraic identities that matter for hardware path conditions (x&0, x|0,
 * ite on constant condition, extract-of-concat wiring, double negation,
 * equality of identical operands, ...). The paper's preconditioned symbolic
 * execution (§II-E1) is expressed as ordinary terms: range constraints for
 * non-byte-multiple signal widths and opcode domain constraints.
 */

#ifndef COPPELIA_SOLVER_TERM_HH
#define COPPELIA_SOLVER_TERM_HH

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/logging.hh"

namespace coppelia::smt
{

/** Index of a term within a TermManager. */
using TermRef = int;
constexpr TermRef NoTerm = -1;

/** Term operators (bit-vector theory; booleans are width-1 vectors). */
enum class TOp : std::uint8_t
{
    Const,
    Var,
    Not,
    Neg,
    RedOr,
    RedAnd,
    RedXor,
    And,
    Or,
    Xor,
    Add,
    Sub,
    Mul,
    Shl,
    LShr,
    AShr,
    Eq,
    Ult,
    Slt,
    Concat,
    Extract,
    ZExt,
    SExt,
    Ite,
};

/** Human-readable operator name. */
const char *topName(TOp op);

/** One immutable term node. */
struct Term
{
    TOp op = TOp::Const;
    int width = 1;
    std::array<TermRef, 3> args{NoTerm, NoTerm, NoTerm};
    std::uint64_t imm = 0; ///< Const payload
    int varId = -1;        ///< Var payload (index into var table)
    int hi = 0, lo = 0;    ///< Extract payload

    bool operator==(const Term &o) const
    {
        return op == o.op && width == o.width && args == o.args &&
               imm == o.imm && varId == o.varId && hi == o.hi && lo == o.lo;
    }
};

/** A model: assignment of constants to variables, keyed by variable id. */
class Model
{
  public:
    void
    set(int var_id, std::uint64_t bits)
    {
        values_[var_id] = bits;
    }

    /** Variable value; unconstrained variables read as zero. */
    std::uint64_t
    value(int var_id) const
    {
        auto it = values_.find(var_id);
        return it == values_.end() ? 0 : it->second;
    }

    bool has(int var_id) const { return values_.count(var_id) != 0; }
    const std::unordered_map<int, std::uint64_t> &all() const
    {
        return values_;
    }

  private:
    std::unordered_map<int, std::uint64_t> values_;
};

/**
 * Owner of the term arena and variable table. All term construction goes
 * through the mk* functions, which simplify eagerly.
 */
class TermManager
{
  public:
    TermManager() = default;

    // --- variables ----------------------------------------------------------

    /** Create a fresh named variable of the given width. */
    TermRef mkVar(const std::string &name, int width);

    int numVarIds() const { return static_cast<int>(varNames_.size()); }
    const std::string &varName(int var_id) const
    {
        return varNames_.at(var_id);
    }
    int varWidth(int var_id) const { return varWidths_.at(var_id); }

    // --- construction (simplifying) ------------------------------------------

    TermRef mkConst(int width, std::uint64_t bits);
    TermRef mkTrue() { return mkConst(1, 1); }
    TermRef mkFalse() { return mkConst(1, 0); }
    TermRef mkNot(TermRef a);
    TermRef mkNeg(TermRef a);
    TermRef mkRedOr(TermRef a);
    TermRef mkRedAnd(TermRef a);
    TermRef mkRedXor(TermRef a);
    TermRef mkAnd(TermRef a, TermRef b);
    TermRef mkOr(TermRef a, TermRef b);
    TermRef mkXor(TermRef a, TermRef b);
    TermRef mkAdd(TermRef a, TermRef b);
    TermRef mkSub(TermRef a, TermRef b);
    TermRef mkMul(TermRef a, TermRef b);
    TermRef mkShl(TermRef a, TermRef b);
    TermRef mkLShr(TermRef a, TermRef b);
    TermRef mkAShr(TermRef a, TermRef b);
    TermRef mkEq(TermRef a, TermRef b);
    TermRef mkNe(TermRef a, TermRef b) { return mkNot(mkEq(a, b)); }
    TermRef mkUlt(TermRef a, TermRef b);
    TermRef mkUle(TermRef a, TermRef b) { return mkNot(mkUlt(b, a)); }
    TermRef mkSlt(TermRef a, TermRef b);
    TermRef mkSle(TermRef a, TermRef b) { return mkNot(mkSlt(b, a)); }
    TermRef mkConcat(TermRef hi_part, TermRef lo_part);
    TermRef mkExtract(TermRef a, int hi, int lo);
    TermRef mkZExt(TermRef a, int width);
    TermRef mkSExt(TermRef a, int width);
    TermRef mkIte(TermRef c, TermRef t, TermRef e);

    /** Boolean implication (width-1 operands). */
    TermRef
    mkImplies(TermRef a, TermRef b)
    {
        return mkOr(mkNot(a), b);
    }

    // --- inspection -----------------------------------------------------------

    const Term &term(TermRef ref) const { return terms_.at(ref); }
    int widthOf(TermRef ref) const { return terms_.at(ref).width; }
    int numTerms() const { return static_cast<int>(terms_.size()); }

    /** True if the term is the literal constant @p bits. */
    bool isConst(TermRef ref, std::uint64_t *bits = nullptr) const;

    /** Concrete evaluation under a model (unassigned vars read 0). */
    std::uint64_t eval(TermRef ref, const Model &model) const;

    /** Append the ids of the variables appearing under @p roots to
     *  @p out_vars, each once, in the order one walk over all the roots
     *  meets them. */
    void collectVars(std::span<const TermRef> roots,
                     std::vector<int> &out_vars) const;

    /** The same for one term. */
    void
    collectVars(TermRef ref, std::vector<int> &out_vars) const
    {
        collectVars({&ref, 1}, out_vars);
    }

    /** Render as an S-expression (debugging). */
    std::string toString(TermRef ref) const;

  private:
    TermRef intern(Term t);
    TermRef mkBinary(TOp op, TermRef a, TermRef b, int width);

    std::vector<Term> terms_;
    std::vector<std::string> varNames_;
    std::vector<int> varWidths_;
    std::unordered_map<std::uint64_t, std::vector<TermRef>> consTable_;

    // Epoch-tagged scratch for eval(): avoids allocating a memo table per
    // evaluation (the counterexample cache evaluates many models against
    // large shared DAGs).
    mutable std::vector<std::uint64_t> evalMemo_;
    mutable std::vector<std::uint32_t> evalEpochOf_;
    mutable std::uint32_t evalEpoch_ = 0;
};

/** Mask covering the low @p width bits (shared with rtl semantics). */
constexpr std::uint64_t
termMask(int width)
{
    return width >= 64 ? ~0ull : ((1ull << width) - 1);
}

} // namespace coppelia::smt

#endif // COPPELIA_SOLVER_TERM_HH
