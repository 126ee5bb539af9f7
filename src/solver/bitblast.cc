#include "solver/bitblast.hh"

#include "util/logging.hh"

namespace coppelia::smt
{

using sat::Lit;

BitBlaster::BitBlaster(TermManager &tm, sat::Solver &sat)
    : tm_(tm), sat_(sat)
{
    // A variable pinned true gives us constant literals.
    trueLit_ = Lit(sat_.newVar(), false);
    sat_.addUnit(trueLit_);
}

Lit
BitBlaster::fresh()
{
    return Lit(sat_.newVar(), false);
}

Lit
BitBlaster::mkAnd(Lit a, Lit b)
{
    if (a == falseLit() || b == falseLit())
        return falseLit();
    if (a == trueLit())
        return b;
    if (b == trueLit())
        return a;
    if (a == b)
        return a;
    if (a == ~b)
        return falseLit();
    Lit o = fresh();
    sat_.addBinary(~o, a);
    sat_.addBinary(~o, b);
    sat_.addTernary(o, ~a, ~b);
    return o;
}

Lit
BitBlaster::mkOr(Lit a, Lit b)
{
    return ~mkAnd(~a, ~b);
}

Lit
BitBlaster::mkXor(Lit a, Lit b)
{
    if (a == falseLit())
        return b;
    if (b == falseLit())
        return a;
    if (a == trueLit())
        return ~b;
    if (b == trueLit())
        return ~a;
    if (a == b)
        return falseLit();
    if (a == ~b)
        return trueLit();
    Lit o = fresh();
    sat_.addTernary(~o, a, b);
    sat_.addTernary(~o, ~a, ~b);
    sat_.addTernary(o, ~a, b);
    sat_.addTernary(o, a, ~b);
    return o;
}

Lit
BitBlaster::mkMux(Lit s, Lit t, Lit e)
{
    if (s == trueLit())
        return t;
    if (s == falseLit())
        return e;
    if (t == e)
        return t;
    Lit o = fresh();
    // s -> (o == t), !s -> (o == e)
    sat_.addTernary(~s, ~t, o);
    sat_.addTernary(~s, t, ~o);
    sat_.addTernary(s, ~e, o);
    sat_.addTernary(s, e, ~o);
    return o;
}

Lit
BitBlaster::adder(Bits a, Bits b, Lit cin, std::vector<Lit> &out)
{
    out.clear();
    Lit carry = cin;
    for (std::size_t i = 0; i < a.size(); ++i) {
        Lit axb = mkXor(a[i], b[i]);
        out.push_back(mkXor(axb, carry));
        // carry' = (a & b) | (carry & (a ^ b))
        carry = mkOr(mkAnd(a[i], b[i]), mkAnd(carry, axb));
    }
    return carry;
}

Lit
BitBlaster::ultChain(Bits a, Bits b)
{
    // Lexicographic from LSB up: lt_i = (~a_i & b_i) | (a_i==b_i) & lt_{i-1}
    Lit lt = falseLit();
    for (std::size_t i = 0; i < a.size(); ++i) {
        Lit ai_lt_bi = mkAnd(~a[i], b[i]);
        Lit eq_i = ~mkXor(a[i], b[i]);
        lt = mkOr(ai_lt_bi, mkAnd(eq_i, lt));
    }
    return lt;
}

BitBlaster::Range
BitBlaster::append(const std::vector<Lit> &lits)
{
    const Range r{static_cast<std::uint32_t>(pool_.size()),
                  static_cast<std::uint32_t>(lits.size())};
    pool_.insert(pool_.end(), lits.begin(), lits.end());
    return r;
}

BitBlaster::Bits
BitBlaster::blast(TermRef ref)
{
    // Terms only grow, and every ref names one of them.
    if (termRange_.size() < static_cast<std::size_t>(tm_.numTerms())) {
        termRange_.resize(tm_.numTerms());
        termVars_.resize(tm_.numTerms());
    }
    if (lowered(ref)) {
        ++cacheHits_;
        return bits(termRange_[ref]);
    }

    // Iterative post-order so deep path-condition DAGs cannot overflow the
    // C stack.
    stack_.assign(1, {ref, false});
    while (!stack_.empty()) {
        const auto [r, expanded] = stack_.back();
        stack_.pop_back();
        if (lowered(r))
            continue;
        const Term &t = tm_.term(r);
        if (!expanded && t.op != TOp::Const && t.op != TOp::Var) {
            stack_.push_back({r, true});
            for (TermRef a : t.args) {
                if (a != NoTerm && !lowered(a))
                    stack_.push_back({a, false});
            }
            continue;
        }
        const sat::Var first = sat_.numVars();
        termRange_[r] = lower(t);
        termVars_[r] = {first, sat_.numVars()};
        ++termsLowered_;
    }
    return bits(termRange_[ref]);
}

BitBlaster::Range
BitBlaster::lower(const Term &t)
{
    // Operand views point into pool_, so the result is built in out_ (or
    // a local) and appended only once the operands are no longer read.
    std::vector<Lit> &out = out_;
    out.clear();
    switch (t.op) {
      case TOp::Const: {
        for (int i = 0; i < t.width; ++i)
            out.push_back((t.imm >> i) & 1 ? trueLit() : falseLit());
        return append(out);
      }
      case TOp::Var: {
        if (varRange_.size() <= static_cast<std::size_t>(t.varId))
            varRange_.resize(t.varId + 1);
        if (varRange_[t.varId].offset == Range::kNone) {
            for (int i = 0; i < t.width; ++i)
                out.push_back(fresh());
            varRange_[t.varId] = append(out);
        }
        return varRange_[t.varId];
      }
      default:
        break;
    }

    const Range ra = termRange_[t.args[0]];
    const Bits a = bits(ra);
    switch (t.op) {
      case TOp::Not:
        for (Lit l : a)
            out.push_back(~l);
        return append(out);
      case TOp::Neg: {
        std::vector<Lit> na;
        for (Lit l : a)
            na.push_back(~l);
        std::vector<Lit> zero(a.size(), falseLit());
        adder(na, zero, trueLit(), out);
        return append(out);
      }
      case TOp::RedOr: {
        Lit acc = falseLit();
        for (Lit l : a)
            acc = mkOr(acc, l);
        out.push_back(acc);
        return append(out);
      }
      case TOp::RedAnd: {
        Lit acc = trueLit();
        for (Lit l : a)
            acc = mkAnd(acc, l);
        out.push_back(acc);
        return append(out);
      }
      case TOp::RedXor: {
        Lit acc = falseLit();
        for (Lit l : a)
            acc = mkXor(acc, l);
        out.push_back(acc);
        return append(out);
      }
      case TOp::Extract:
        return Range{ra.offset + static_cast<std::uint32_t>(t.lo),
                     static_cast<std::uint32_t>(t.hi - t.lo + 1)};
      case TOp::ZExt:
        out.assign(a.begin(), a.end());
        while (static_cast<int>(out.size()) < t.width)
            out.push_back(falseLit());
        return append(out);
      case TOp::SExt:
        out.assign(a.begin(), a.end());
        while (static_cast<int>(out.size()) < t.width)
            out.push_back(a.back());
        return append(out);
      default:
        break;
    }

    const Bits b = bits(termRange_[t.args[1]]);
    switch (t.op) {
      case TOp::And:
        for (std::size_t i = 0; i < a.size(); ++i)
            out.push_back(mkAnd(a[i], b[i]));
        return append(out);
      case TOp::Or:
        for (std::size_t i = 0; i < a.size(); ++i)
            out.push_back(mkOr(a[i], b[i]));
        return append(out);
      case TOp::Xor:
        for (std::size_t i = 0; i < a.size(); ++i)
            out.push_back(mkXor(a[i], b[i]));
        return append(out);
      case TOp::Add:
        adder(a, b, falseLit(), out);
        return append(out);
      case TOp::Sub: {
        std::vector<Lit> nb;
        for (Lit l : b)
            nb.push_back(~l);
        adder(a, nb, trueLit(), out);
        return append(out);
      }
      case TOp::Mul: {
        // Shift-and-add over the partial products.
        const std::size_t w = a.size();
        std::vector<Lit> acc(w, falseLit());
        for (std::size_t i = 0; i < w; ++i) {
            std::vector<Lit> partial(w, falseLit());
            for (std::size_t j = 0; i + j < w; ++j)
                partial[i + j] = mkAnd(a[j], b[i]);
            std::vector<Lit> sum;
            adder(acc, partial, falseLit(), sum);
            acc = sum;
        }
        return append(acc);
      }
      case TOp::Shl:
      case TOp::LShr:
      case TOp::AShr: {
        // Barrel shifter over the shift-amount bits. Amounts >= width force
        // zero (or sign fill for AShr).
        const int w = static_cast<int>(a.size());
        const Lit fill =
            t.op == TOp::AShr ? a.back() : falseLit();
        std::vector<Lit> cur(a.begin(), a.end());
        const int sh_bits = static_cast<int>(b.size());
        for (int k = 0; k < sh_bits; ++k) {
            const std::int64_t amount = 1ll << k;
            std::vector<Lit> shifted(w, fill);
            if (amount < w) {
                for (int i = 0; i < w; ++i) {
                    int src = t.op == TOp::Shl
                                  ? i - static_cast<int>(amount)
                                  : i + static_cast<int>(amount);
                    if (src >= 0 && src < w)
                        shifted[i] = cur[src];
                }
            }
            for (int i = 0; i < w; ++i)
                cur[i] = mkMux(b[k], shifted[i], cur[i]);
        }
        return append(cur);
      }
      case TOp::Eq: {
        Lit acc = trueLit();
        for (std::size_t i = 0; i < a.size(); ++i)
            acc = mkAnd(acc, ~mkXor(a[i], b[i]));
        out.push_back(acc);
        return append(out);
      }
      case TOp::Ult:
        out.push_back(ultChain(a, b));
        return append(out);
      case TOp::Slt: {
        // a <s b  ==  (a ^ msb) <u (b ^ msb): flip sign bits.
        std::vector<Lit> fa(a.begin(), a.end()), fb(b.begin(), b.end());
        fa.back() = ~fa.back();
        fb.back() = ~fb.back();
        out.push_back(ultChain(fa, fb));
        return append(out);
      }
      case TOp::Concat: {
        out.assign(b.begin(), b.end()); // low part first (LSB ordering)
        for (Lit l : a)
            out.push_back(l);
        return append(out);
      }
      case TOp::Ite: {
        const Bits c = bits(termRange_[t.args[2]]);
        Lit s = a[0];
        for (std::size_t i = 0; i < b.size(); ++i)
            out.push_back(mkMux(s, b[i], c[i]));
        return append(out);
      }
      default:
        panic("bitblast: unhandled op ", topName(t.op));
    }
}

void
BitBlaster::assertTrue(TermRef ref)
{
    if (tm_.widthOf(ref) != 1)
        fatal("assertTrue on non-boolean term");
    sat_.addUnit(blast(ref)[0]);
}

std::span<const sat::VarRange>
BitBlaster::cone(std::span<const TermRef> roots)
{
    if (coneMark_.size() < termVars_.size())
        coneMark_.resize(termVars_.size(), 0);
    if (++coneEpoch_ == 0) { // wrapped: no mark may match a new epoch
        std::fill(coneMark_.begin(), coneMark_.end(), 0);
        coneEpoch_ = 1;
    }
    cone_.clear();
    coneStack_.assign(roots.begin(), roots.end());
    while (!coneStack_.empty()) {
        const TermRef r = coneStack_.back();
        coneStack_.pop_back();
        if (coneMark_[r] == coneEpoch_)
            continue;
        coneMark_[r] = coneEpoch_;
        if (termVars_[r].begin != termVars_[r].end)
            cone_.push_back(termVars_[r]);
        for (TermRef a : tm_.term(r).args) {
            if (a != NoTerm && coneMark_[a] != coneEpoch_)
                coneStack_.push_back(a);
        }
    }
    return cone_;
}

BitBlaster::Bits
BitBlaster::varLits(int var_id) const
{
    if (static_cast<std::size_t>(var_id) >= varRange_.size() ||
        varRange_[var_id].offset == Range::kNone)
        return {};
    return bits(varRange_[var_id]);
}

} // namespace coppelia::smt
