#include "sym/lower.hh"

#include <algorithm>

#include "util/logging.hh"

namespace coppelia::sym
{

using rtl::ExprRef;
using rtl::Op;
using rtl::SignalId;
using smt::TermRef;

Lowering::Lowering(const rtl::Design &design, smt::TermManager &tm,
                   const Binding &binding, bool branches_as_ite)
    : design_(design), tm_(tm), binding_(binding),
      branchesAsIte_(branches_as_ite)
{}

void
Lowering::switchPath(const Decisions &decisions)
{
    std::size_t shared = 0;
    while (shared < path_.size() && shared < decisions.size() &&
           path_[shared] == decisions[shared])
        ++shared;
    // An entry at level L read only decisions 0..L-1: those past the
    // shared prefix may differ, so every level beyond it goes stale.
    // Levels past the old path's depth hold no live entry.
    for (std::size_t level = shared + 1; level <= path_.size(); ++level)
        ++epochs_[level];
    path_ = decisions;
    if (epochs_.size() <= path_.size())
        epochs_.resize(path_.size() + 1, 0);
}

TermRef
Lowering::read(const Entry &entry)
{
    level_ = std::max(level_, entry.level);
    return entry.term;
}

Lowering::Entry
Lowering::settle(TermRef term, std::uint32_t outer)
{
    const Entry entry{term, level_, epochs_[level_]};
    level_ = std::max(outer, level_);
    return entry;
}

std::optional<TermRef>
Lowering::lower(ExprRef ref)
{
    pending_ = PendingBranch{};
    level_ = 0;
    return lowerRec(ref);
}

std::optional<TermRef>
Lowering::lowerSignal(SignalId sig)
{
    level_ = 0;
    return lowerSignalRec(sig);
}

std::optional<TermRef>
Lowering::lowerSignalRec(SignalId sig)
{
    auto it = sigMemo_.find(sig);
    if (it != sigMemo_.end() && live(it->second))
        return read(it->second);

    const std::uint32_t outer = level_;
    level_ = 0;
    const rtl::Signal &s = design_.signal(sig);
    switch (s.kind) {
      case rtl::SignalKind::Input:
      case rtl::SignalKind::Register: {
        auto bit = binding_.find(sig);
        if (bit == binding_.end())
            fatal("unbound ", s.kind == rtl::SignalKind::Input
                                  ? "input"
                                  : "register",
                  " signal in lowering: ", s.name);
        sigMemo_[sig] = settle(bit->second, outer);
        return bit->second;
      }
      case rtl::SignalKind::Wire: {
        if (s.def == rtl::NoExpr) {
            // Undriven wire reads as zero (matches the simulator).
            TermRef z = tm_.mkConst(s.width, 0);
            sigMemo_[sig] = settle(z, outer);
            return z;
        }
        auto t = lowerRec(s.def);
        if (!t)
            return std::nullopt;
        sigMemo_[sig] = settle(*t, outer);
        return t;
      }
    }
    panic("unreachable signal kind");
}

std::optional<TermRef>
Lowering::lowerRec(ExprRef ref)
{
    auto it = exprMemo_.find(ref);
    if (it != exprMemo_.end() && live(it->second))
        return read(it->second);

    // A miss: this node's level starts at 0 and gathers what its operands
    // read; memoize() folds it back into the enclosing node's level.
    ++lowered_;
    const std::uint32_t outer = level_;
    level_ = 0;
    const rtl::Expr &e = design_.expr(ref);

    auto memoize = [this, ref, outer](TermRef t) {
        exprMemo_[ref] = settle(t, outer);
        return std::optional<TermRef>(t);
    };

    switch (e.op) {
      case Op::Const:
        return memoize(tm_.mkConst(e.width, e.imm));
      case Op::Signal: {
        auto t = lowerSignalRec(e.sig);
        if (!t)
            return std::nullopt;
        return memoize(*t);
      }
      case Op::Ite: {
        auto cond = lowerRec(e.args[0]);
        if (!cond)
            return std::nullopt;
        // Control branch: fork unless the condition is constant or already
        // decided on this path.
        if (design_.isBranch(ref) && !branchesAsIte_) {
            std::uint64_t k;
            if (tm_.isConst(*cond, &k)) {
                auto branch = lowerRec(k ? e.args[1] : e.args[2]);
                if (!branch)
                    return std::nullopt;
                return memoize(*branch);
            }
            auto dit = std::find_if(
                path_.begin(), path_.end(),
                [ref](const auto &d) { return d.first == ref; });
            if (dit == path_.end()) {
                pending_.ite = ref;
                pending_.cond = *cond;
                return std::nullopt;
            }
            level_ = std::max(
                level_, static_cast<std::uint32_t>(dit - path_.begin() + 1));
            auto branch = lowerRec(dit->second ? e.args[1] : e.args[2]);
            if (!branch)
                return std::nullopt;
            return memoize(*branch);
        }
        auto t = lowerRec(e.args[1]);
        if (!t)
            return std::nullopt;
        auto f = lowerRec(e.args[2]);
        if (!f)
            return std::nullopt;
        return memoize(tm_.mkIte(*cond, *t, *f));
      }
      default:
        break;
    }

    std::optional<TermRef> a, b;
    if (e.args[0] != rtl::NoExpr) {
        a = lowerRec(e.args[0]);
        if (!a)
            return std::nullopt;
    }
    if (e.args[1] != rtl::NoExpr) {
        b = lowerRec(e.args[1]);
        if (!b)
            return std::nullopt;
    }

    switch (e.op) {
      case Op::Not: return memoize(tm_.mkNot(*a));
      case Op::Neg: return memoize(tm_.mkNeg(*a));
      case Op::RedOr: return memoize(tm_.mkRedOr(*a));
      case Op::RedAnd: return memoize(tm_.mkRedAnd(*a));
      case Op::RedXor: return memoize(tm_.mkRedXor(*a));
      case Op::And: return memoize(tm_.mkAnd(*a, *b));
      case Op::Or: return memoize(tm_.mkOr(*a, *b));
      case Op::Xor: return memoize(tm_.mkXor(*a, *b));
      case Op::Add: return memoize(tm_.mkAdd(*a, *b));
      case Op::Sub: return memoize(tm_.mkSub(*a, *b));
      case Op::Mul: return memoize(tm_.mkMul(*a, *b));
      case Op::Shl: return memoize(tm_.mkShl(*a, *b));
      case Op::LShr: return memoize(tm_.mkLShr(*a, *b));
      case Op::AShr: return memoize(tm_.mkAShr(*a, *b));
      case Op::Eq: return memoize(tm_.mkEq(*a, *b));
      case Op::Ne: return memoize(tm_.mkNe(*a, *b));
      case Op::Ult: return memoize(tm_.mkUlt(*a, *b));
      case Op::Ule: return memoize(tm_.mkUle(*a, *b));
      case Op::Slt: return memoize(tm_.mkSlt(*a, *b));
      case Op::Sle: return memoize(tm_.mkSle(*a, *b));
      case Op::Concat: return memoize(tm_.mkConcat(*a, *b));
      case Op::Extract: return memoize(tm_.mkExtract(*a, e.hi, e.lo));
      case Op::ZExt: return memoize(tm_.mkZExt(*a, e.width));
      case Op::SExt: return memoize(tm_.mkSExt(*a, e.width));
      default:
        panic("lowerRec: unhandled op ", rtl::opName(e.op));
    }
}

} // namespace coppelia::sym
