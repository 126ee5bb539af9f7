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
BitBlaster::adder(const std::vector<Lit> &a, const std::vector<Lit> &b,
                  Lit cin, std::vector<Lit> &out)
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
BitBlaster::ultChain(const std::vector<Lit> &a, const std::vector<Lit> &b)
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

const std::vector<Lit> &
BitBlaster::blast(TermRef ref)
{
    auto it = cache_.find(ref);
    if (it != cache_.end()) {
        ++cacheHits_;
        return it->second;
    }

    // Iterative post-order so deep path-condition DAGs cannot overflow the
    // C stack.
    std::vector<std::pair<TermRef, bool>> stack{{ref, false}};
    while (!stack.empty()) {
        auto [r, expanded] = stack.back();
        stack.pop_back();
        if (cache_.count(r))
            continue;
        const Term &t = tm_.term(r);
        if (!expanded && t.op != TOp::Const && t.op != TOp::Var) {
            stack.push_back({r, true});
            for (TermRef a : t.args) {
                if (a != NoTerm && !cache_.count(a))
                    stack.push_back({a, false});
            }
            continue;
        }
        cache_[r] = lower(t);
        ++termsLowered_;
    }
    return cache_.at(ref);
}

std::vector<Lit>
BitBlaster::lower(const Term &t)
{
    std::vector<Lit> out;
    switch (t.op) {
      case TOp::Const: {
        for (int i = 0; i < t.width; ++i)
            out.push_back((t.imm >> i) & 1 ? trueLit() : falseLit());
        return out;
      }
      case TOp::Var: {
        auto it = varBits_.find(t.varId);
        if (it != varBits_.end())
            return it->second;
        for (int i = 0; i < t.width; ++i)
            out.push_back(fresh());
        varBits_[t.varId] = out;
        return out;
      }
      default:
        break;
    }

    const std::vector<Lit> &a =
        t.args[0] != NoTerm ? cache_.at(t.args[0]) : cache_.begin()->second;
    switch (t.op) {
      case TOp::Not:
        for (Lit l : a)
            out.push_back(~l);
        return out;
      case TOp::Neg: {
        std::vector<Lit> na;
        for (Lit l : a)
            na.push_back(~l);
        std::vector<Lit> zero(a.size(), falseLit());
        adder(na, zero, trueLit(), out);
        return out;
      }
      case TOp::RedOr: {
        Lit acc = falseLit();
        for (Lit l : a)
            acc = mkOr(acc, l);
        return {acc};
      }
      case TOp::RedAnd: {
        Lit acc = trueLit();
        for (Lit l : a)
            acc = mkAnd(acc, l);
        return {acc};
      }
      case TOp::RedXor: {
        Lit acc = falseLit();
        for (Lit l : a)
            acc = mkXor(acc, l);
        return {acc};
      }
      case TOp::Extract:
        for (int i = t.lo; i <= t.hi; ++i)
            out.push_back(a[i]);
        return out;
      case TOp::ZExt:
        out = a;
        while (static_cast<int>(out.size()) < t.width)
            out.push_back(falseLit());
        return out;
      case TOp::SExt:
        out = a;
        while (static_cast<int>(out.size()) < t.width)
            out.push_back(a.back());
        return out;
      default:
        break;
    }

    const std::vector<Lit> &b = cache_.at(t.args[1]);
    switch (t.op) {
      case TOp::And:
        for (std::size_t i = 0; i < a.size(); ++i)
            out.push_back(mkAnd(a[i], b[i]));
        return out;
      case TOp::Or:
        for (std::size_t i = 0; i < a.size(); ++i)
            out.push_back(mkOr(a[i], b[i]));
        return out;
      case TOp::Xor:
        for (std::size_t i = 0; i < a.size(); ++i)
            out.push_back(mkXor(a[i], b[i]));
        return out;
      case TOp::Add:
        adder(a, b, falseLit(), out);
        return out;
      case TOp::Sub: {
        std::vector<Lit> nb;
        for (Lit l : b)
            nb.push_back(~l);
        adder(a, nb, trueLit(), out);
        return out;
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
        return acc;
      }
      case TOp::Shl:
      case TOp::LShr:
      case TOp::AShr: {
        // Barrel shifter over the shift-amount bits. Amounts >= width force
        // zero (or sign fill for AShr).
        const int w = static_cast<int>(a.size());
        const Lit fill =
            t.op == TOp::AShr ? a.back() : falseLit();
        std::vector<Lit> cur = a;
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
        return cur;
      }
      case TOp::Eq: {
        Lit acc = trueLit();
        for (std::size_t i = 0; i < a.size(); ++i)
            acc = mkAnd(acc, ~mkXor(a[i], b[i]));
        return {acc};
      }
      case TOp::Ult:
        return {ultChain(a, b)};
      case TOp::Slt: {
        // a <s b  ==  (a ^ msb) <u (b ^ msb): flip sign bits.
        std::vector<Lit> fa = a, fb = b;
        fa.back() = ~fa.back();
        fb.back() = ~fb.back();
        return {ultChain(fa, fb)};
      }
      case TOp::Concat: {
        out = b; // low part first (LSB ordering)
        for (Lit l : a)
            out.push_back(l);
        return out;
      }
      case TOp::Ite: {
        const std::vector<Lit> &c = cache_.at(t.args[2]);
        Lit s = a[0];
        for (std::size_t i = 0; i < b.size(); ++i)
            out.push_back(mkMux(s, b[i], c[i]));
        return out;
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
    const std::vector<Lit> &bits = blast(ref);
    sat_.addUnit(bits[0]);
}

const std::vector<Lit> *
BitBlaster::varLits(int var_id) const
{
    auto it = varBits_.find(var_id);
    return it == varBits_.end() ? nullptr : &it->second;
}

} // namespace coppelia::smt
