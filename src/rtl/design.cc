#include "rtl/design.hh"

#include <algorithm>
#include <functional>
#include <sstream>

namespace coppelia::rtl
{

const char *
opName(Op op)
{
    switch (op) {
      case Op::Const: return "const";
      case Op::Signal: return "sig";
      case Op::Not: return "not";
      case Op::Neg: return "neg";
      case Op::RedOr: return "redor";
      case Op::RedAnd: return "redand";
      case Op::RedXor: return "redxor";
      case Op::And: return "and";
      case Op::Or: return "or";
      case Op::Xor: return "xor";
      case Op::Add: return "add";
      case Op::Sub: return "sub";
      case Op::Mul: return "mul";
      case Op::Shl: return "shl";
      case Op::LShr: return "lshr";
      case Op::AShr: return "ashr";
      case Op::Eq: return "eq";
      case Op::Ne: return "ne";
      case Op::Ult: return "ult";
      case Op::Ule: return "ule";
      case Op::Slt: return "slt";
      case Op::Sle: return "sle";
      case Op::Concat: return "concat";
      case Op::Extract: return "extract";
      case Op::ZExt: return "zext";
      case Op::SExt: return "sext";
      case Op::Ite: return "ite";
    }
    return "?";
}

int
opArity(Op op)
{
    switch (op) {
      case Op::Const:
      case Op::Signal:
        return 0;
      case Op::Not:
      case Op::Neg:
      case Op::RedOr:
      case Op::RedAnd:
      case Op::RedXor:
      case Op::Extract:
      case Op::ZExt:
      case Op::SExt:
        return 1;
      case Op::Ite:
        return 3;
      default:
        return 2;
    }
}

SignalId
Design::addInput(const std::string &name, int width)
{
    if (signalByName_.count(name))
        fatal("duplicate signal name: ", name);
    Signal s;
    s.name = name;
    s.width = width;
    s.kind = SignalKind::Input;
    signals_.push_back(std::move(s));
    SignalId id = static_cast<SignalId>(signals_.size()) - 1;
    signalByName_[name] = id;
    invalidateTopo();
    return id;
}

SignalId
Design::addWire(const std::string &name, int width)
{
    if (signalByName_.count(name))
        fatal("duplicate signal name: ", name);
    Signal s;
    s.name = name;
    s.width = width;
    s.kind = SignalKind::Wire;
    signals_.push_back(std::move(s));
    SignalId id = static_cast<SignalId>(signals_.size()) - 1;
    signalByName_[name] = id;
    invalidateTopo();
    return id;
}

SignalId
Design::addRegister(const std::string &name, int width,
                    std::uint64_t reset_bits)
{
    if (signalByName_.count(name))
        fatal("duplicate signal name: ", name);
    Signal s;
    s.name = name;
    s.width = width;
    s.kind = SignalKind::Register;
    s.resetValue = Value(width, reset_bits);
    signals_.push_back(std::move(s));
    SignalId id = static_cast<SignalId>(signals_.size()) - 1;
    signalByName_[name] = id;
    invalidateTopo();
    return id;
}

void
Design::defineWire(SignalId sig, ExprRef def)
{
    Signal &s = signals_.at(sig);
    if (s.kind != SignalKind::Wire)
        fatal("defineWire on non-wire signal ", s.name);
    if (widthOf(def) != s.width)
        fatal("width mismatch defining wire ", s.name, ": signal is ",
              s.width, " bits, expression is ", widthOf(def));
    s.def = def;
    s.process = currentProcess_;
    if (currentProcess_ >= 0)
        processes_[currentProcess_].assigns.push_back(sig);
    invalidateTopo();
}

void
Design::defineNext(SignalId sig, ExprRef next)
{
    Signal &s = signals_.at(sig);
    if (s.kind != SignalKind::Register)
        fatal("defineNext on non-register signal ", s.name);
    if (widthOf(next) != s.width)
        fatal("width mismatch defining register ", s.name, ": signal is ",
              s.width, " bits, expression is ", widthOf(next));
    s.def = next;
    s.process = currentProcess_;
    if (currentProcess_ >= 0)
        processes_[currentProcess_].assigns.push_back(sig);
}

void
Design::markOutput(SignalId sig)
{
    signals_.at(sig).output = true;
}

void
Design::markBranch(ExprRef ref)
{
    if (exprs_.at(ref).op != Op::Ite)
        fatal("markBranch on non-Ite expression");
    if (branch_.size() < exprs_.size())
        branch_.resize(exprs_.size(), false);
    branch_[ref] = true;
}

SignalId
Design::findSignal(const std::string &name) const
{
    auto it = signalByName_.find(name);
    return it == signalByName_.end() ? NoSignal : it->second;
}

SignalId
Design::signalIdOf(const std::string &name) const
{
    SignalId id = findSignal(name);
    if (id == NoSignal)
        fatal("no such signal in design '", name_, "': ", name);
    return id;
}

void
Design::beginProcess(const std::string &name)
{
    auto it = processByName_.find(name);
    if (it != processByName_.end()) {
        currentProcess_ = it->second;
        return;
    }
    Process p;
    p.name = name;
    processes_.push_back(std::move(p));
    currentProcess_ = static_cast<int>(processes_.size()) - 1;
    processByName_[name] = currentProcess_;
}

ExprRef
Design::intern(Expr e)
{
    exprs_.push_back(e);
    return static_cast<ExprRef>(exprs_.size()) - 1;
}

ExprRef
Design::constant(int width, std::uint64_t bits)
{
    Expr e;
    e.op = Op::Const;
    e.width = width;
    e.imm = bits & widthMask(width);
    return intern(e);
}

ExprRef
Design::signalExpr(SignalId sig)
{
    Expr e;
    e.op = Op::Signal;
    e.width = signals_.at(sig).width;
    e.sig = sig;
    return intern(e);
}

ExprRef
Design::unary(Op op, ExprRef a)
{
    if (opArity(op) != 1)
        panic("unary() with non-unary op ", opName(op));
    Expr e;
    e.op = op;
    e.args[0] = a;
    switch (op) {
      case Op::Not:
      case Op::Neg:
        e.width = widthOf(a);
        break;
      case Op::RedOr:
      case Op::RedAnd:
      case Op::RedXor:
        e.width = 1;
        break;
      default:
        panic("unary() does not build ", opName(op),
              "; use the dedicated constructor");
    }
    return intern(e);
}

ExprRef
Design::binary(Op op, ExprRef a, ExprRef b)
{
    if (opArity(op) != 2 || op == Op::Concat)
        panic("binary() with unsupported op ", opName(op));
    Expr e;
    e.op = op;
    e.args[0] = a;
    e.args[1] = b;
    const int wa = widthOf(a);
    const int wb = widthOf(b);
    switch (op) {
      case Op::And:
      case Op::Or:
      case Op::Xor:
      case Op::Add:
      case Op::Sub:
      case Op::Mul:
        if (wa != wb)
            fatal("width mismatch in ", opName(op), ": ", wa, " vs ", wb);
        e.width = wa;
        break;
      case Op::Shl:
      case Op::LShr:
      case Op::AShr:
        e.width = wa; // shift amount width is independent
        break;
      case Op::Eq:
      case Op::Ne:
      case Op::Ult:
      case Op::Ule:
      case Op::Slt:
      case Op::Sle:
        if (wa != wb)
            fatal("width mismatch in ", opName(op), ": ", wa, " vs ", wb);
        e.width = 1;
        break;
      default:
        panic("unhandled binary op");
    }
    return intern(e);
}

ExprRef
Design::ite(ExprRef cond, ExprRef then_e, ExprRef else_e)
{
    if (widthOf(cond) != 1)
        fatal("ite condition must be 1 bit, got ", widthOf(cond));
    if (widthOf(then_e) != widthOf(else_e))
        fatal("ite branch width mismatch: ", widthOf(then_e), " vs ",
              widthOf(else_e));
    Expr e;
    e.op = Op::Ite;
    e.width = widthOf(then_e);
    e.args = {cond, then_e, else_e};
    return intern(e);
}

ExprRef
Design::extract(ExprRef a, int hi, int lo)
{
    const int wa = widthOf(a);
    if (lo < 0 || hi >= wa || hi < lo)
        fatal("bad extract [", hi, ":", lo, "] of ", wa, "-bit expression");
    Expr e;
    e.op = Op::Extract;
    e.width = hi - lo + 1;
    e.args[0] = a;
    e.hi = hi;
    e.lo = lo;
    return intern(e);
}

ExprRef
Design::zext(ExprRef a, int width)
{
    if (width < widthOf(a))
        fatal("zext to narrower width");
    if (width == widthOf(a))
        return a;
    Expr e;
    e.op = Op::ZExt;
    e.width = width;
    e.args[0] = a;
    return intern(e);
}

ExprRef
Design::sext(ExprRef a, int width)
{
    if (width < widthOf(a))
        fatal("sext to narrower width");
    if (width == widthOf(a))
        return a;
    Expr e;
    e.op = Op::SExt;
    e.width = width;
    e.args[0] = a;
    return intern(e);
}

ExprRef
Design::concat(ExprRef hi_part, ExprRef lo_part)
{
    Expr e;
    e.op = Op::Concat;
    e.width = widthOf(hi_part) + widthOf(lo_part);
    if (e.width > MaxWidth)
        fatal("concat result exceeds ", MaxWidth, " bits");
    e.args[0] = hi_part;
    e.args[1] = lo_part;
    return intern(e);
}

namespace
{

/** Apply an operator to already-evaluated operand values. */
Value
applyOp(const Expr &e, const Value &a, const Value &b, const Value &c)
{
    switch (e.op) {
      case Op::Not:
        return Value(e.width, ~a.bits());
      case Op::Neg:
        return Value(e.width, ~a.bits() + 1);
      case Op::RedOr:
        return Value(1, a.bits() != 0);
      case Op::RedAnd:
        return Value(1, a.bits() == widthMask(a.width()));
      case Op::RedXor:
        return Value(1, __builtin_parityll(a.bits()));
      case Op::And:
        return Value(e.width, a.bits() & b.bits());
      case Op::Or:
        return Value(e.width, a.bits() | b.bits());
      case Op::Xor:
        return Value(e.width, a.bits() ^ b.bits());
      case Op::Add:
        return Value(e.width, a.bits() + b.bits());
      case Op::Sub:
        return Value(e.width, a.bits() - b.bits());
      case Op::Mul:
        return Value(e.width, a.bits() * b.bits());
      case Op::Shl: {
        const std::uint64_t sh = b.bits();
        return Value(e.width, sh >= 64 ? 0 : (a.bits() << sh));
      }
      case Op::LShr: {
        const std::uint64_t sh = b.bits();
        return Value(e.width, sh >= 64 ? 0 : (a.bits() >> sh));
      }
      case Op::AShr: {
        const std::uint64_t sh = b.bits();
        const std::int64_t sa = a.toInt();
        if (sh >= 63)
            return Value(e.width, sa < 0 ? ~0ull : 0);
        return Value(e.width, static_cast<std::uint64_t>(sa >> sh));
      }
      case Op::Eq:
        return Value(1, a.bits() == b.bits());
      case Op::Ne:
        return Value(1, a.bits() != b.bits());
      case Op::Ult:
        return Value(1, a.bits() < b.bits());
      case Op::Ule:
        return Value(1, a.bits() <= b.bits());
      case Op::Slt:
        return Value(1, a.toInt() < b.toInt());
      case Op::Sle:
        return Value(1, a.toInt() <= b.toInt());
      case Op::Concat:
        return Value(e.width, (a.bits() << b.width()) | b.bits());
      case Op::Extract:
        return Value(e.width, a.bits() >> e.lo);
      case Op::ZExt:
        return Value(e.width, a.bits());
      case Op::SExt:
        return Value(e.width, static_cast<std::uint64_t>(a.toInt()));
      case Op::Ite:
        return a.isTrue() ? b : c;
      default:
        panic("applyOp: unhandled op ", opName(e.op));
    }
}

} // namespace

Value
Design::eval(ExprRef ref, const std::vector<Value> &env) const
{
    // Memoized iterative post-order evaluation: expression graphs are DAGs
    // (32-way mux trees are common), so naive recursion would revisit shared
    // subgraphs exponentially often.
    std::unordered_map<ExprRef, Value> memo;
    std::vector<std::pair<ExprRef, bool>> stack{{ref, false}};
    while (!stack.empty()) {
        auto [r, expanded] = stack.back();
        stack.pop_back();
        if (memo.count(r))
            continue;
        const Expr &e = exprs_.at(r);
        if (e.op == Op::Const) {
            memo.emplace(r, Value(e.width, e.imm));
            continue;
        }
        if (e.op == Op::Signal) {
            memo.emplace(r, env.at(e.sig));
            continue;
        }
        if (!expanded) {
            stack.push_back({r, true});
            for (ExprRef a : e.args) {
                if (a != NoExpr)
                    stack.push_back({a, false});
            }
            continue;
        }
        const Value a = e.args[0] != NoExpr ? memo.at(e.args[0]) : Value();
        const Value b = e.args[1] != NoExpr ? memo.at(e.args[1]) : Value();
        const Value c = e.args[2] != NoExpr ? memo.at(e.args[2]) : Value();
        memo.emplace(r, applyOp(e, a, b, c));
    }
    return memo.at(ref);
}

const std::vector<SignalId> &
Design::topoWires() const
{
    if (topoValid_)
        return topo_;
    topo_.clear();

    // 0 = unvisited, 1 = on stack, 2 = done
    std::vector<int> mark(signals_.size(), 0);

    // Iterative DFS over wire -> wire dependencies.
    std::function<void(SignalId)> visit = [&](SignalId sig) {
        if (signals_[sig].kind != SignalKind::Wire)
            return;
        if (mark[sig] == 2)
            return;
        if (mark[sig] == 1)
            fatal("combinational cycle through wire ", signals_[sig].name);
        mark[sig] = 1;
        if (signals_[sig].def != NoExpr) {
            std::vector<bool> reads(signals_.size(), false);
            collectSignals(signals_[sig].def, reads);
            for (SignalId dep = 0; dep < numSignals(); ++dep) {
                if (reads[dep] && signals_[dep].kind == SignalKind::Wire)
                    visit(dep);
            }
        }
        mark[sig] = 2;
        topo_.push_back(sig);
    };

    for (SignalId sig = 0; sig < numSignals(); ++sig)
        visit(sig);

    topoValid_ = true;
    return topo_;
}

void
Design::collectSignals(ExprRef ref, std::vector<bool> &seen_sig) const
{
    // Iterative DFS with an explicit stack; expression DAGs can be deep.
    std::vector<ExprRef> stack{ref};
    std::vector<bool> seen_expr(exprs_.size(), false);
    while (!stack.empty()) {
        ExprRef r = stack.back();
        stack.pop_back();
        if (r == NoExpr || seen_expr[r])
            continue;
        seen_expr[r] = true;
        const Expr &e = exprs_[r];
        if (e.op == Op::Signal) {
            seen_sig[e.sig] = true;
            continue;
        }
        for (ExprRef a : e.args) {
            if (a != NoExpr)
                stack.push_back(a);
        }
    }
}

std::string
Design::exprToString(ExprRef ref) const
{
    const Expr &e = exprs_.at(ref);
    std::ostringstream os;
    switch (e.op) {
      case Op::Const:
        os << Value(e.width, e.imm).toString();
        return os.str();
      case Op::Signal:
        os << signals_.at(e.sig).name;
        return os.str();
      default:
        break;
    }
    os << "(" << opName(e.op);
    if (e.op == Op::Extract)
        os << "[" << e.hi << ":" << e.lo << "]";
    if (e.op == Op::ZExt || e.op == Op::SExt)
        os << e.width;
    for (ExprRef a : e.args) {
        if (a != NoExpr)
            os << " " << exprToString(a);
    }
    os << ")";
    return os.str();
}

void
Design::copyFrom(const Design &other)
{
    name_ = other.name_;
    signals_ = other.signals_;
    exprs_ = other.exprs_;
    processes_ = other.processes_;
    signalByName_ = other.signalByName_;
    processByName_ = other.processByName_;
    branch_ = other.branch_;
    currentProcess_ = other.currentProcess_;
    invalidateTopo();
}

} // namespace coppelia::rtl
