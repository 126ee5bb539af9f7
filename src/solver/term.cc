#include "solver/term.hh"

#include <sstream>

namespace coppelia::smt
{

const char *
topName(TOp op)
{
    switch (op) {
      case TOp::Const: return "const";
      case TOp::Var: return "var";
      case TOp::Not: return "not";
      case TOp::Neg: return "neg";
      case TOp::RedOr: return "redor";
      case TOp::RedAnd: return "redand";
      case TOp::RedXor: return "redxor";
      case TOp::And: return "and";
      case TOp::Or: return "or";
      case TOp::Xor: return "xor";
      case TOp::Add: return "add";
      case TOp::Sub: return "sub";
      case TOp::Mul: return "mul";
      case TOp::Shl: return "shl";
      case TOp::LShr: return "lshr";
      case TOp::AShr: return "ashr";
      case TOp::Eq: return "eq";
      case TOp::Ult: return "ult";
      case TOp::Slt: return "slt";
      case TOp::Concat: return "concat";
      case TOp::Extract: return "extract";
      case TOp::ZExt: return "zext";
      case TOp::SExt: return "sext";
      case TOp::Ite: return "ite";
    }
    return "?";
}

namespace
{

std::uint64_t
hashTerm(const Term &t)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 0x100000001b3ull;
    };
    mix(static_cast<std::uint64_t>(t.op));
    mix(static_cast<std::uint64_t>(t.width));
    for (TermRef a : t.args)
        mix(static_cast<std::uint64_t>(a) + 0x9e3779b9u);
    mix(t.imm);
    mix(static_cast<std::uint64_t>(t.varId) + 1);
    mix((static_cast<std::uint64_t>(t.hi) << 32) |
        static_cast<std::uint32_t>(t.lo));
    return h;
}

std::int64_t
asSigned(std::uint64_t bits, int width)
{
    if (width == 64)
        return static_cast<std::int64_t>(bits);
    const std::uint64_t sign = 1ull << (width - 1);
    if (bits & sign)
        return static_cast<std::int64_t>(bits - (sign << 1));
    return static_cast<std::int64_t>(bits);
}

} // namespace

TermRef
TermManager::intern(Term t)
{
    std::uint64_t h = hashTerm(t);
    auto &bucket = consTable_[h];
    for (TermRef r : bucket) {
        if (terms_[r] == t)
            return r;
    }
    terms_.push_back(t);
    TermRef r = static_cast<TermRef>(terms_.size()) - 1;
    bucket.push_back(r);
    return r;
}

TermRef
TermManager::mkVar(const std::string &name, int width)
{
    if (width < 1 || width > 64)
        fatal("variable width out of range: ", width);
    Term t;
    t.op = TOp::Var;
    t.width = width;
    t.varId = static_cast<int>(varNames_.size());
    varNames_.push_back(name);
    varWidths_.push_back(width);
    // Vars are unique by construction (fresh varId), bypass dedup semantics
    // but still go through intern for arena consistency.
    return intern(t);
}

TermRef
TermManager::mkConst(int width, std::uint64_t bits)
{
    if (width < 1 || width > 64)
        fatal("constant width out of range: ", width);
    Term t;
    t.op = TOp::Const;
    t.width = width;
    t.imm = bits & termMask(width);
    return intern(t);
}

bool
TermManager::isConst(TermRef ref, std::uint64_t *bits) const
{
    const Term &t = terms_.at(ref);
    if (t.op != TOp::Const)
        return false;
    if (bits)
        *bits = t.imm;
    return true;
}

TermRef
TermManager::mkNot(TermRef a)
{
    std::uint64_t ka = 0;
    const Term &ta = terms_.at(a);
    if (isConst(a, &ka))
        return mkConst(ta.width, ~ka);
    if (ta.op == TOp::Not)
        return ta.args[0]; // double negation
    Term t;
    t.op = TOp::Not;
    t.width = ta.width;
    t.args[0] = a;
    return intern(t);
}

TermRef
TermManager::mkNeg(TermRef a)
{
    std::uint64_t ka = 0;
    const int w = widthOf(a);
    if (isConst(a, &ka))
        return mkConst(w, ~ka + 1);
    Term t;
    t.op = TOp::Neg;
    t.width = w;
    t.args[0] = a;
    return intern(t);
}

TermRef
TermManager::mkRedOr(TermRef a)
{
    std::uint64_t ka = 0;
    if (isConst(a, &ka))
        return mkConst(1, ka != 0);
    if (widthOf(a) == 1)
        return a;
    Term t;
    t.op = TOp::RedOr;
    t.width = 1;
    t.args[0] = a;
    return intern(t);
}

TermRef
TermManager::mkRedAnd(TermRef a)
{
    std::uint64_t ka = 0;
    if (isConst(a, &ka))
        return mkConst(1, ka == termMask(widthOf(a)));
    if (widthOf(a) == 1)
        return a;
    Term t;
    t.op = TOp::RedAnd;
    t.width = 1;
    t.args[0] = a;
    return intern(t);
}

TermRef
TermManager::mkRedXor(TermRef a)
{
    std::uint64_t ka = 0;
    if (isConst(a, &ka))
        return mkConst(1, __builtin_parityll(ka));
    if (widthOf(a) == 1)
        return a;
    Term t;
    t.op = TOp::RedXor;
    t.width = 1;
    t.args[0] = a;
    return intern(t);
}

TermRef
TermManager::mkBinary(TOp op, TermRef a, TermRef b, int width)
{
    Term t;
    t.op = op;
    t.width = width;
    t.args[0] = a;
    t.args[1] = b;
    return intern(t);
}

TermRef
TermManager::mkAnd(TermRef a, TermRef b)
{
    const int w = widthOf(a);
    if (w != widthOf(b))
        fatal("mkAnd width mismatch");
    std::uint64_t ka = 0, kb = 0;
    const bool ca = isConst(a, &ka), cb = isConst(b, &kb);
    if (ca && cb)
        return mkConst(w, ka & kb);
    if ((ca && ka == 0) || (cb && kb == 0))
        return mkConst(w, 0);
    if (ca && ka == termMask(w))
        return b;
    if (cb && kb == termMask(w))
        return a;
    if (a == b)
        return a;
    // Canonical operand order for commutative ops improves sharing.
    if (a > b)
        std::swap(a, b);
    return mkBinary(TOp::And, a, b, w);
}

TermRef
TermManager::mkOr(TermRef a, TermRef b)
{
    const int w = widthOf(a);
    if (w != widthOf(b))
        fatal("mkOr width mismatch");
    std::uint64_t ka = 0, kb = 0;
    const bool ca = isConst(a, &ka), cb = isConst(b, &kb);
    if (ca && cb)
        return mkConst(w, ka | kb);
    if ((ca && ka == termMask(w)) || (cb && kb == termMask(w)))
        return mkConst(w, termMask(w));
    if (ca && ka == 0)
        return b;
    if (cb && kb == 0)
        return a;
    if (a == b)
        return a;
    if (a > b)
        std::swap(a, b);
    return mkBinary(TOp::Or, a, b, w);
}

TermRef
TermManager::mkXor(TermRef a, TermRef b)
{
    const int w = widthOf(a);
    if (w != widthOf(b))
        fatal("mkXor width mismatch");
    std::uint64_t ka = 0, kb = 0;
    const bool ca = isConst(a, &ka), cb = isConst(b, &kb);
    if (ca && cb)
        return mkConst(w, ka ^ kb);
    if (ca && ka == 0)
        return b;
    if (cb && kb == 0)
        return a;
    if (a == b)
        return mkConst(w, 0);
    if (a > b)
        std::swap(a, b);
    return mkBinary(TOp::Xor, a, b, w);
}

TermRef
TermManager::mkAdd(TermRef a, TermRef b)
{
    const int w = widthOf(a);
    if (w != widthOf(b))
        fatal("mkAdd width mismatch");
    std::uint64_t ka = 0, kb = 0;
    const bool ca = isConst(a, &ka), cb = isConst(b, &kb);
    if (ca && cb)
        return mkConst(w, ka + kb);
    if (ca && ka == 0)
        return b;
    if (cb && kb == 0)
        return a;
    if (a > b)
        std::swap(a, b);
    return mkBinary(TOp::Add, a, b, w);
}

TermRef
TermManager::mkSub(TermRef a, TermRef b)
{
    const int w = widthOf(a);
    if (w != widthOf(b))
        fatal("mkSub width mismatch");
    std::uint64_t ka = 0, kb = 0;
    const bool ca = isConst(a, &ka), cb = isConst(b, &kb);
    if (ca && cb)
        return mkConst(w, ka - kb);
    if (cb && kb == 0)
        return a;
    if (a == b)
        return mkConst(w, 0);
    return mkBinary(TOp::Sub, a, b, w);
}

TermRef
TermManager::mkMul(TermRef a, TermRef b)
{
    const int w = widthOf(a);
    if (w != widthOf(b))
        fatal("mkMul width mismatch");
    std::uint64_t ka = 0, kb = 0;
    const bool ca = isConst(a, &ka), cb = isConst(b, &kb);
    if (ca && cb)
        return mkConst(w, ka * kb);
    if ((ca && ka == 0) || (cb && kb == 0))
        return mkConst(w, 0);
    if (ca && ka == 1)
        return b;
    if (cb && kb == 1)
        return a;
    if (a > b)
        std::swap(a, b);
    return mkBinary(TOp::Mul, a, b, w);
}

TermRef
TermManager::mkShl(TermRef a, TermRef b)
{
    const int w = widthOf(a);
    std::uint64_t ka = 0, kb = 0;
    const bool ca = isConst(a, &ka), cb = isConst(b, &kb);
    if (ca && cb)
        return mkConst(w, kb >= 64 ? 0 : (ka << kb));
    if (cb && kb == 0)
        return a;
    if (cb && kb >= static_cast<std::uint64_t>(w))
        return mkConst(w, 0);
    return mkBinary(TOp::Shl, a, b, w);
}

TermRef
TermManager::mkLShr(TermRef a, TermRef b)
{
    const int w = widthOf(a);
    std::uint64_t ka = 0, kb = 0;
    const bool ca = isConst(a, &ka), cb = isConst(b, &kb);
    if (ca && cb)
        return mkConst(w, kb >= 64 ? 0 : (ka >> kb));
    if (cb && kb == 0)
        return a;
    if (cb && kb >= static_cast<std::uint64_t>(w))
        return mkConst(w, 0);
    return mkBinary(TOp::LShr, a, b, w);
}

TermRef
TermManager::mkAShr(TermRef a, TermRef b)
{
    const int w = widthOf(a);
    std::uint64_t ka = 0, kb = 0;
    const bool ca = isConst(a, &ka), cb = isConst(b, &kb);
    if (ca && cb) {
        std::int64_t sa = asSigned(ka, w);
        if (kb >= 63)
            return mkConst(w, sa < 0 ? ~0ull : 0);
        return mkConst(w, static_cast<std::uint64_t>(sa >> kb));
    }
    if (cb && kb == 0)
        return a;
    return mkBinary(TOp::AShr, a, b, w);
}

TermRef
TermManager::mkEq(TermRef a, TermRef b)
{
    if (widthOf(a) != widthOf(b))
        fatal("mkEq width mismatch");
    std::uint64_t ka = 0, kb = 0;
    if (isConst(a, &ka) && isConst(b, &kb))
        return mkConst(1, ka == kb);
    if (a == b)
        return mkTrue();
    // eq(x, 1) over booleans is x; eq(x, 0) is not(x).
    if (widthOf(a) == 1) {
        if (isConst(b, &kb))
            return kb ? a : mkNot(a);
        if (isConst(a, &ka))
            return ka ? b : mkNot(b);
    }
    if (a > b)
        std::swap(a, b);
    return mkBinary(TOp::Eq, a, b, 1);
}

TermRef
TermManager::mkUlt(TermRef a, TermRef b)
{
    if (widthOf(a) != widthOf(b))
        fatal("mkUlt width mismatch");
    std::uint64_t ka = 0, kb = 0;
    const bool ca = isConst(a, &ka), cb = isConst(b, &kb);
    if (ca && cb)
        return mkConst(1, ka < kb);
    if (a == b)
        return mkFalse();
    if (cb && kb == 0)
        return mkFalse(); // nothing is < 0 unsigned
    if (ca && ka == termMask(widthOf(a)))
        return mkFalse(); // max is < nothing
    return mkBinary(TOp::Ult, a, b, 1);
}

TermRef
TermManager::mkSlt(TermRef a, TermRef b)
{
    if (widthOf(a) != widthOf(b))
        fatal("mkSlt width mismatch");
    std::uint64_t ka = 0, kb = 0;
    if (isConst(a, &ka) && isConst(b, &kb)) {
        const int w = widthOf(a);
        return mkConst(1, asSigned(ka, w) < asSigned(kb, w));
    }
    if (a == b)
        return mkFalse();
    return mkBinary(TOp::Slt, a, b, 1);
}

TermRef
TermManager::mkConcat(TermRef hi_part, TermRef lo_part)
{
    const int w = widthOf(hi_part) + widthOf(lo_part);
    if (w > 64)
        fatal("mkConcat result exceeds 64 bits");
    std::uint64_t kh, kl;
    if (isConst(hi_part, &kh) && isConst(lo_part, &kl))
        return mkConst(w, (kh << widthOf(lo_part)) | kl);
    return mkBinary(TOp::Concat, hi_part, lo_part, w);
}

TermRef
TermManager::mkExtract(TermRef a, int hi, int lo)
{
    const Term &ta = terms_.at(a);
    if (lo < 0 || hi >= ta.width || hi < lo)
        fatal("mkExtract bad range [", hi, ":", lo, "] of ", ta.width);
    if (lo == 0 && hi == ta.width - 1)
        return a;
    std::uint64_t ka = 0;
    if (isConst(a, &ka))
        return mkConst(hi - lo + 1, ka >> lo);
    // extract of concat resolves to one side when it does not straddle.
    if (ta.op == TOp::Concat) {
        const int lo_w = widthOf(ta.args[1]);
        if (hi < lo_w)
            return mkExtract(ta.args[1], hi, lo);
        if (lo >= lo_w)
            return mkExtract(ta.args[0], hi - lo_w, lo - lo_w);
    }
    // extract of zext resolves to the source or zero.
    if (ta.op == TOp::ZExt) {
        const int src_w = widthOf(ta.args[0]);
        if (hi < src_w)
            return mkExtract(ta.args[0], hi, lo);
        if (lo >= src_w)
            return mkConst(hi - lo + 1, 0);
    }
    // extract of extract composes.
    if (ta.op == TOp::Extract)
        return mkExtract(ta.args[0], ta.lo + hi, ta.lo + lo);
    Term t;
    t.op = TOp::Extract;
    t.width = hi - lo + 1;
    t.args[0] = a;
    t.hi = hi;
    t.lo = lo;
    return intern(t);
}

TermRef
TermManager::mkZExt(TermRef a, int width)
{
    const int wa = widthOf(a);
    if (width < wa)
        fatal("mkZExt narrows");
    if (width == wa)
        return a;
    std::uint64_t ka = 0;
    if (isConst(a, &ka))
        return mkConst(width, ka);
    Term t;
    t.op = TOp::ZExt;
    t.width = width;
    t.args[0] = a;
    return intern(t);
}

TermRef
TermManager::mkSExt(TermRef a, int width)
{
    const int wa = widthOf(a);
    if (width < wa)
        fatal("mkSExt narrows");
    if (width == wa)
        return a;
    std::uint64_t ka = 0;
    if (isConst(a, &ka))
        return mkConst(width,
                       static_cast<std::uint64_t>(asSigned(ka, wa)));
    Term t;
    t.op = TOp::SExt;
    t.width = width;
    t.args[0] = a;
    return intern(t);
}

TermRef
TermManager::mkIte(TermRef c, TermRef t, TermRef e)
{
    if (widthOf(c) != 1)
        fatal("mkIte condition must be 1 bit");
    if (widthOf(t) != widthOf(e))
        fatal("mkIte branch width mismatch");
    std::uint64_t kc;
    if (isConst(c, &kc))
        return kc ? t : e;
    if (t == e)
        return t;
    // Boolean ite lowers to gates (helps the simplifier fold further).
    if (widthOf(t) == 1) {
        std::uint64_t kt, ke;
        const bool ct = isConst(t, &kt), ce = isConst(e, &ke);
        if (ct && ce)
            return kt ? (ke ? mkTrue() : c) : (ke ? mkNot(c) : mkFalse());
        if (ct)
            return kt ? mkOr(c, e) : mkAnd(mkNot(c), e);
        if (ce)
            return ke ? mkOr(mkNot(c), t) : mkAnd(c, t);
    }
    Term node;
    node.op = TOp::Ite;
    node.width = widthOf(t);
    node.args = {c, t, e};
    return intern(node);
}

std::uint64_t
TermManager::eval(TermRef ref, const Model &model) const
{
    // Memoized iterative post-order with epoch-tagged scratch (term DAGs
    // share heavily and eval runs hot inside the counterexample cache).
    if (evalMemo_.size() < terms_.size()) {
        evalMemo_.resize(terms_.size());
        evalEpochOf_.resize(terms_.size(), 0);
    }
    ++evalEpoch_;
    const std::uint32_t epoch = evalEpoch_;
    auto known = [this, epoch](TermRef r) {
        return evalEpochOf_[r] == epoch;
    };
    auto store = [this, epoch](TermRef r, std::uint64_t v) {
        evalMemo_[r] = v;
        evalEpochOf_[r] = epoch;
    };

    std::vector<std::pair<TermRef, bool>> stack{{ref, false}};
    while (!stack.empty()) {
        auto [r, expanded] = stack.back();
        stack.pop_back();
        if (known(r))
            continue;
        const Term &t = terms_[r];
        if (t.op == TOp::Const) {
            store(r, t.imm);
            continue;
        }
        if (t.op == TOp::Var) {
            store(r, model.value(t.varId) & termMask(t.width));
            continue;
        }
        if (!expanded) {
            stack.push_back({r, true});
            for (TermRef a : t.args) {
                if (a != NoTerm && !known(a))
                    stack.push_back({a, false});
            }
            continue;
        }
        const std::uint64_t a =
            t.args[0] != NoTerm ? evalMemo_[t.args[0]] : 0;
        const std::uint64_t b =
            t.args[1] != NoTerm ? evalMemo_[t.args[1]] : 0;
        const std::uint64_t c =
            t.args[2] != NoTerm ? evalMemo_[t.args[2]] : 0;
        const int wa = t.args[0] != NoTerm ? widthOf(t.args[0]) : 1;
        const std::uint64_t mask = termMask(t.width);
        std::uint64_t v = 0;
        switch (t.op) {
          case TOp::Not: v = ~a; break;
          case TOp::Neg: v = ~a + 1; break;
          case TOp::RedOr: v = a != 0; break;
          case TOp::RedAnd: v = a == termMask(wa); break;
          case TOp::RedXor: v = __builtin_parityll(a); break;
          case TOp::And: v = a & b; break;
          case TOp::Or: v = a | b; break;
          case TOp::Xor: v = a ^ b; break;
          case TOp::Add: v = a + b; break;
          case TOp::Sub: v = a - b; break;
          case TOp::Mul: v = a * b; break;
          case TOp::Shl: v = b >= 64 ? 0 : (a << b); break;
          case TOp::LShr: v = b >= 64 ? 0 : (a >> b); break;
          case TOp::AShr: {
            std::int64_t sa = asSigned(a, wa);
            v = b >= 63 ? (sa < 0 ? ~0ull : 0)
                        : static_cast<std::uint64_t>(sa >> b);
            break;
          }
          case TOp::Eq: v = a == b; break;
          case TOp::Ult: v = a < b; break;
          case TOp::Slt:
            v = asSigned(a, wa) < asSigned(b, wa);
            break;
          case TOp::Concat:
            v = (a << widthOf(t.args[1])) | b;
            break;
          case TOp::Extract: v = a >> t.lo; break;
          case TOp::ZExt: v = a; break;
          case TOp::SExt:
            v = static_cast<std::uint64_t>(asSigned(a, wa));
            break;
          case TOp::Ite: v = a ? b : c; break;
          default:
            panic("eval: unhandled term op ", topName(t.op));
        }
        store(r, v & mask);
    }
    if (!known(ref))
        panic("eval failed to reach root");
    return evalMemo_[ref];
}

void
TermManager::collectVars(std::span<const TermRef> roots,
                         std::vector<int> &out_vars) const
{
    std::vector<char> seen_var(varNames_.size(), 0);
    std::vector<char> seen_term(terms_.size(), 0);
    std::vector<TermRef> stack(roots.begin(), roots.end());
    while (!stack.empty()) {
        TermRef r = stack.back();
        stack.pop_back();
        if (r == NoTerm || seen_term[r])
            continue;
        seen_term[r] = 1;
        const Term &t = terms_[r];
        if (t.op == TOp::Var) {
            if (!seen_var[t.varId]) {
                seen_var[t.varId] = 1;
                out_vars.push_back(t.varId);
            }
            continue;
        }
        for (TermRef a : t.args) {
            if (a != NoTerm)
                stack.push_back(a);
        }
    }
}

std::string
TermManager::toString(TermRef ref) const
{
    const Term &t = terms_.at(ref);
    std::ostringstream os;
    switch (t.op) {
      case TOp::Const:
        os << t.width << "'h" << std::hex << t.imm;
        return os.str();
      case TOp::Var:
        return varNames_.at(t.varId);
      default:
        break;
    }
    os << "(" << topName(t.op);
    if (t.op == TOp::Extract)
        os << "[" << t.hi << ":" << t.lo << "]";
    if (t.op == TOp::ZExt || t.op == TOp::SExt)
        os << t.width;
    for (TermRef a : t.args) {
        if (a != NoTerm)
            os << " " << toString(a);
    }
    os << ")";
    return os.str();
}

} // namespace coppelia::smt
