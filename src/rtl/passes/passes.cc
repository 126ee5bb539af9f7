#include "rtl/passes/passes.hh"

#include <map>
#include <sstream>
#include <tuple>
#include <unordered_map>

#include "trace/trace.hh"
#include "util/logging.hh"

namespace coppelia::rtl
{

std::string
PassStats::toString() const
{
    std::ostringstream os;
    os << "exprs " << exprsBefore << " -> " << exprsAfter << " ("
       << (exprsBefore ? 100 * exprsAfter / exprsBefore : 100) << "%), "
       << "wires dropped " << wiresDropped << "/" << wiresBefore << ", "
       << folds << " folds, " << rewrites << " rewrites";
    return os.str();
}

namespace
{

/** Collect the live signal set: registers, inputs, outputs, keep-roots,
 *  plus every signal transitively read by a live definition. */
std::vector<bool>
liveSignals(const Design &design, const std::vector<SignalId> &keep_roots)
{
    const int n = design.numSignals();
    std::vector<bool> live(n, false);
    std::vector<SignalId> work;

    auto root = [&](SignalId sig) {
        if (!live[sig]) {
            live[sig] = true;
            work.push_back(sig);
        }
    };

    for (SignalId sig = 0; sig < n; ++sig) {
        const Signal &s = design.signal(sig);
        if (s.kind == SignalKind::Register || s.output)
            root(sig);
    }
    for (SignalId sig : keep_roots)
        root(sig);

    while (!work.empty()) {
        SignalId sig = work.back();
        work.pop_back();
        const Signal &s = design.signal(sig);
        if (s.def == NoExpr)
            continue;
        std::vector<bool> reads(n, false);
        design.collectSignals(s.def, reads);
        for (SignalId dep = 0; dep < n; ++dep) {
            if (reads[dep])
                root(dep);
        }
    }
    return live;
}

/** Count expression nodes reachable from the given definitions. */
int
reachableExprs(const Design &design, const std::vector<ExprRef> &roots)
{
    std::vector<bool> seen(design.numExprs(), false);
    std::vector<ExprRef> stack;
    for (ExprRef r : roots) {
        if (r != NoExpr)
            stack.push_back(r);
    }
    int count = 0;
    while (!stack.empty()) {
        ExprRef r = stack.back();
        stack.pop_back();
        if (seen[r])
            continue;
        seen[r] = true;
        ++count;
        const Expr &e = design.expr(r);
        for (ExprRef a : e.args) {
            if (a != NoExpr)
                stack.push_back(a);
        }
    }
    return count;
}

/**
 * Rewriting copier: rebuilds an expression DAG in the destination design
 * with folding/identity rewrites applied bottom-up. With the CSE stage
 * on, it builds no node twice: a node structurally equal to one it
 * already built is shared.
 */
class Rewriter
{
  public:
    Rewriter(const Design &src, Design &dst, const PassOptions &opts,
             PassStats &stats)
        : src_(src), dst_(dst), opts_(opts), stats_(stats)
    {}

    ExprRef
    rewrite(ExprRef ref)
    {
        auto it = memo_.find(ref);
        if (it != memo_.end())
            return it->second;

        // Iterative post-order over the source DAG.
        std::vector<std::pair<ExprRef, bool>> stack{{ref, false}};
        while (!stack.empty()) {
            auto [r, expanded] = stack.back();
            stack.pop_back();
            if (memo_.count(r))
                continue;
            const Expr &e = src_.expr(r);
            if (!expanded && opArity(e.op) > 0) {
                stack.push_back({r, true});
                for (ExprRef a : e.args) {
                    if (a != NoExpr && !memo_.count(a))
                        stack.push_back({a, false});
                }
                continue;
            }
            ExprRef out = rebuild(e);
            // Control-branch marks survive optimization when the node is
            // still an Ite after rewriting.
            if (src_.isBranch(r) && dst_.expr(out).op == Op::Ite)
                dst_.markBranch(out);
            memo_[r] = out;
        }
        return memo_.at(ref);
    }

  private:
    bool
    isConst(ExprRef r, std::uint64_t *bits = nullptr) const
    {
        const Expr &e = dst_.expr(r);
        if (e.op != Op::Const)
            return false;
        if (bits)
            *bits = e.imm;
        return true;
    }

    /** Rebuild one node whose operands are already rewritten. */
    ExprRef
    rebuild(const Expr &e)
    {
        switch (e.op) {
          case Op::Const:
            return constant(e.width, e.imm);
          case Op::Signal:
            return cons(e, [&] { return dst_.signalExpr(e.sig); });
          default:
            break;
        }

        ExprRef a = e.args[0] != NoExpr ? memo_.at(e.args[0]) : NoExpr;
        ExprRef b = e.args[1] != NoExpr ? memo_.at(e.args[1]) : NoExpr;
        ExprRef c = e.args[2] != NoExpr ? memo_.at(e.args[2]) : NoExpr;

        // Constant folding: all operands literal -> evaluate now.
        if (opts_.constantFold && allConst(a, b, c)) {
            ExprRef folded = foldNode(e, a, b, c);
            if (folded != NoExpr) {
                ++stats_.folds;
                return folded;
            }
        }

        if (opts_.algebraic) {
            ExprRef simplified = identity(e, a, b, c);
            if (simplified != NoExpr) {
                ++stats_.rewrites;
                return simplified;
            }
        }

        return emit(e, a, b, c);
    }

    bool
    allConst(ExprRef a, ExprRef b, ExprRef c) const
    {
        if (a != NoExpr && !isConst(a))
            return false;
        if (b != NoExpr && !isConst(b))
            return false;
        if (c != NoExpr && !isConst(c))
            return false;
        return a != NoExpr;
    }

    /** Evaluate a node over literal operands via Design::eval. */
    ExprRef
    foldNode(const Expr &e, ExprRef a, ExprRef b, ExprRef c)
    {
        // Build the node in the destination and evaluate it with an empty
        // environment (no Signal leaves by construction).
        ExprRef node = emit(e, a, b, c);
        static const std::vector<Value> empty_env;
        Value v = dst_.eval(node, empty_env);
        return constant(v.width(), v.bits());
    }

    /** Algebraic identity rewrites; NoExpr when none applies. */
    ExprRef
    identity(const Expr &e, ExprRef a, ExprRef b, ExprRef c)
    {
        std::uint64_t ka = 0, kb = 0;
        const bool ca = a != NoExpr && isConst(a, &ka);
        const bool cb = b != NoExpr && isConst(b, &kb);
        const std::uint64_t ones = widthMask(e.width);

        switch (e.op) {
          case Op::And:
            if ((ca && ka == 0) || (cb && kb == 0))
                return constant(e.width, 0);
            if (ca && ka == ones)
                return b;
            if (cb && kb == ones)
                return a;
            if (a == b)
                return a;
            break;
          case Op::Or:
            if (ca && ka == 0)
                return b;
            if (cb && kb == 0)
                return a;
            if ((ca && ka == ones) || (cb && kb == ones))
                return constant(e.width, ones);
            if (a == b)
                return a;
            break;
          case Op::Xor:
            if (ca && ka == 0)
                return b;
            if (cb && kb == 0)
                return a;
            if (a == b)
                return constant(e.width, 0);
            break;
          case Op::Add:
          case Op::Sub:
            if (cb && kb == 0)
                return a;
            if (e.op == Op::Add && ca && ka == 0)
                return b;
            break;
          case Op::Mul:
            if ((ca && ka == 0) || (cb && kb == 0))
                return constant(e.width, 0);
            if (ca && ka == 1)
                return b;
            if (cb && kb == 1)
                return a;
            break;
          case Op::Shl:
          case Op::LShr:
          case Op::AShr:
            if (cb && kb == 0)
                return a;
            break;
          case Op::Eq:
            if (a == b)
                return constant(1, 1);
            break;
          case Op::Ne:
          case Op::Ult:
            if (a == b)
                return constant(1, 0);
            break;
          case Op::Ule:
          case Op::Sle:
            if (a == b)
                return constant(1, 1);
            break;
          case Op::Slt:
            if (a == b)
                return constant(1, 0);
            break;
          case Op::Not: {
            const Expr &ea = dst_.expr(a);
            if (ea.op == Op::Not)
                return ea.args[0];
            break;
          }
          case Op::Ite:
            if (ca)
                return ka ? b : c;
            if (b == c)
                return b;
            break;
          case Op::Extract: {
            const Expr &ea = dst_.expr(a);
            if (e.lo == 0 && e.hi == ea.width - 1)
                return a; // full-width extract
            break;
          }
          default:
            break;
        }
        return NoExpr;
    }

    /** Emit a structural copy of the node with rewritten operands. */
    ExprRef
    emit(const Expr &e, ExprRef a, ExprRef b, ExprRef c)
    {
        Expr key = e;
        key.args = {a, b, c};
        return cons(key, [&] {
            switch (e.op) {
              case Op::Ite:
                return dst_.ite(a, b, c);
              case Op::Extract:
                return dst_.extract(a, e.hi, e.lo);
              case Op::ZExt:
                return dst_.zext(a, e.width);
              case Op::SExt:
                return dst_.sext(a, e.width);
              case Op::Concat:
                return dst_.concat(a, b);
              default:
                if (opArity(e.op) == 1)
                    return dst_.unary(e.op, a);
                return dst_.binary(e.op, a, b);
            }
        });
    }

    ExprRef
    constant(int width, std::uint64_t bits)
    {
        Expr key;
        key.width = width;
        key.imm = bits & widthMask(width);
        return cons(key, [&] { return dst_.constant(width, bits); });
    }

    /** The CSE stage: what @p build returned for an equal @p key
     *  earlier, else what it returns now. */
    template <typename Build>
    ExprRef
    cons(const Expr &key, Build build)
    {
        if (!opts_.cse)
            return build();
        auto [it, fresh] = consTable_.try_emplace(
            std::tie(key.op, key.width, key.args, key.imm, key.sig, key.hi,
                     key.lo),
            NoExpr);
        if (fresh)
            it->second = build();
        return it->second;
    }

    const Design &src_;
    Design &dst_;
    const PassOptions &opts_;
    PassStats &stats_;
    std::unordered_map<ExprRef, ExprRef> memo_;
    std::map<std::tuple<Op, int, std::array<ExprRef, 3>, std::uint64_t,
                        SignalId, int, int>,
             ExprRef>
        consTable_;
};

} // namespace

int
liveExprCount(const Design &design, const std::vector<SignalId> &keep_roots)
{
    std::vector<bool> live = liveSignals(design, keep_roots);
    std::vector<ExprRef> roots;
    for (SignalId sig = 0; sig < design.numSignals(); ++sig) {
        if (live[sig] && design.signal(sig).def != NoExpr)
            roots.push_back(design.signal(sig).def);
    }
    return reachableExprs(design, roots);
}

Design
optimizeDesign(const Design &design, const PassOptions &opts,
               const std::vector<SignalId> &keep_roots, PassStats *stats)
{
    trace::Span span("rtl.optimize", "rtl");
    PassStats local;
    PassStats &st = stats ? *stats : local;
    st = PassStats{};
    st.exprsBefore = liveExprCount(design, keep_roots);

    Design out(design.name());

    // Recreate the signal table with identical ids and names.
    for (SignalId sig = 0; sig < design.numSignals(); ++sig) {
        const Signal &s = design.signal(sig);
        SignalId nid = NoSignal;
        switch (s.kind) {
          case SignalKind::Input:
            nid = out.addInput(s.name, s.width);
            break;
          case SignalKind::Wire:
            nid = out.addWire(s.name, s.width);
            break;
          case SignalKind::Register:
            nid = out.addRegister(s.name, s.width, s.resetValue.bits());
            break;
        }
        if (nid != sig)
            panic("optimizeDesign: signal id drift");
        if (s.output)
            out.markOutput(nid);
    }

    std::vector<bool> live = opts.deadCode
                                 ? liveSignals(design, keep_roots)
                                 : std::vector<bool>(design.numSignals(),
                                                     true);

    Rewriter rw(design, out, opts, st);
    for (SignalId sig = 0; sig < design.numSignals(); ++sig) {
        const Signal &s = design.signal(sig);
        if (s.def == NoExpr)
            continue;
        if (s.kind == SignalKind::Wire) {
            ++st.wiresBefore;
            if (!live[sig]) {
                ++st.wiresDropped;
                continue;
            }
        }
        // Preserve the process attribution of the assignment.
        if (s.process >= 0)
            out.beginProcess(design.processes()[s.process].name);
        else
            out.endProcess();
        ExprRef def = rw.rewrite(s.def);
        // Width can only have been preserved by rewriting; double-check.
        if (out.widthOf(def) != s.width)
            panic("optimizeDesign: width drift on ", s.name);
        if (s.kind == SignalKind::Wire)
            out.defineWire(sig, def);
        else
            out.defineNext(sig, def);
    }
    out.endProcess();

    st.exprsAfter = liveExprCount(out, keep_roots);
    return out;
}

} // namespace coppelia::rtl
