#include "rtl/compile/codegen.hh"

#include <span>
#include <sstream>
#include <unordered_map>

#include "rtl/schedule.hh"
#include "util/logging.hh"

namespace coppelia::rtl::compile
{

namespace
{

// --- IR hashing -------------------------------------------------------------

struct Fnv1a
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }

    void
    mix(const std::string &s)
    {
        for (unsigned char c : s) {
            h ^= c;
            h *= 0x100000001b3ull;
        }
        mix(s.size());
    }
};

// --- expression emission ----------------------------------------------------

std::string
hexLit(std::uint64_t v)
{
    std::ostringstream os;
    os << "0x" << std::hex << v << "ull";
    return os.str();
}

/** Wrap @p body in the mask for width w. */
std::string
masked(const std::string &body, int w)
{
    if (w >= 64)
        return body;
    return "(" + body + ") & " + hexLit(widthMask(w));
}

/** Prints schedule slots as C++: signal words as `s[i]`, constants as
 *  literals, temporaries as `t<slot>` locals. */
class SlotNames
{
  public:
    explicit SlotNames(const Schedule &sched)
        : numSignals_(static_cast<std::uint32_t>(sched.numSignals())),
          constants_(sched.constants().begin(), sched.constants().end())
    {
    }

    std::string
    operator()(std::uint32_t slot) const
    {
        if (slot < numSignals_)
            return "s[" + std::to_string(slot) + "]";
        if (auto it = constants_.find(slot); it != constants_.end())
            return hexLit(it->second);
        return "t" + std::to_string(slot);
    }

    /** The left-hand side that stores into @p slot. */
    std::string
    store(std::uint32_t slot) const
    {
        if (slot < numSignals_)
            return (*this)(slot);
        return "const u64 " + (*this)(slot);
    }

  private:
    std::uint32_t numSignals_;
    std::unordered_map<std::uint32_t, std::uint64_t> constants_;
};

/** The C++ right-hand side of @p in. Mirrors Schedule::run case by case,
 *  with the masks Design::eval applies. */
std::string
instrBody(const Instr &in, const SlotNames &name)
{
    const std::string a = name(in.a);
    const std::string b = name(in.b);
    const std::string c = name(in.c);
    const int w = in.width;
    const std::string sa = "sgn(" + a + ", " + std::to_string(in.aux) + ")";
    const std::string sb = "sgn(" + b + ", " + std::to_string(in.aux) + ")";
    switch (in.op) {
      case Op::Not:
        return masked("~" + a, w);
      case Op::Neg:
        return masked("~" + a + " + 1", w);
      case Op::RedOr:
        return "(u64)(" + a + " != 0)";
      case Op::RedAnd:
        return "(u64)(" + a + " == " + hexLit(widthMask(in.aux)) + ")";
      case Op::RedXor:
        return "(u64)__builtin_parityll(" + a + ")";
      case Op::And:
        return masked(a + " & " + b, w);
      case Op::Or:
        return masked(a + " | " + b, w);
      case Op::Xor:
        return masked(a + " ^ " + b, w);
      case Op::Add:
        return masked(a + " + " + b, w);
      case Op::Sub:
        return masked(a + " - " + b, w);
      case Op::Mul:
        return masked(a + " * " + b, w);
      case Op::Shl:
        return masked(b + " >= 64 ? 0 : " + a + " << " + b, w);
      case Op::LShr:
        return masked(b + " >= 64 ? 0 : " + a + " >> " + b, w);
      case Op::AShr:
        // Shifts >= 63 collapse to the sign fill.
        return masked(b + " >= 63 ? (" + sa +
                          " < 0 ? ~0ull : 0ull) : (u64)(" + sa + " >> " +
                          b + ")",
                      w);
      case Op::Eq:
        return "(u64)(" + a + " == " + b + ")";
      case Op::Ne:
        return "(u64)(" + a + " != " + b + ")";
      case Op::Ult:
        return "(u64)(" + a + " < " + b + ")";
      case Op::Ule:
        return "(u64)(" + a + " <= " + b + ")";
      case Op::Slt:
        return "(u64)(" + sa + " < " + sb + ")";
      case Op::Sle:
        return "(u64)(" + sa + " <= " + sb + ")";
      case Op::Concat:
        return masked(a + " << " + std::to_string(in.aux) + " | " + b, w);
      case Op::Extract:
        return masked(a + " >> " + std::to_string(in.aux), w);
      case Op::ZExt:
        return a; // also the schedule's copy; operands are masked already
      case Op::SExt:
        return masked("(u64)" + sa, w);
      case Op::Ite:
        return a + " ? " + b + " : " + c;
      default:
        break;
    }
    panic("codegen: unhandled op ", opName(in.op));
}

/** One line per instruction of @p instrs. */
void
emitInstrs(std::span<const Instr> instrs, const SlotNames &name,
           std::ostringstream &os)
{
    for (const Instr &in : instrs)
        os << "    " << name.store(in.dst) << " = " << instrBody(in, name)
           << ";\n";
}

} // namespace

std::uint64_t
designIrHash(const Design &design)
{
    Fnv1a f;
    f.mix(kCodegenAbiVersion);
    f.mix(design.name());
    f.mix(static_cast<std::uint64_t>(design.numSignals()));
    for (SignalId sig = 0; sig < design.numSignals(); ++sig) {
        const Signal &s = design.signal(sig);
        f.mix(s.name);
        f.mix(static_cast<std::uint64_t>(s.width));
        f.mix(static_cast<std::uint64_t>(s.kind));
        f.mix(static_cast<std::uint64_t>(s.def));
        f.mix(s.resetValue.bits());
        f.mix(static_cast<std::uint64_t>(s.resetValue.width()));
    }
    f.mix(static_cast<std::uint64_t>(design.numExprs()));
    for (ExprRef r = 0; r < design.numExprs(); ++r) {
        const Expr &e = design.expr(r);
        f.mix(static_cast<std::uint64_t>(e.op));
        f.mix(static_cast<std::uint64_t>(e.width));
        for (ExprRef arg : e.args)
            f.mix(static_cast<std::uint64_t>(arg));
        f.mix(e.imm);
        f.mix(static_cast<std::uint64_t>(e.sig));
        f.mix(static_cast<std::uint64_t>(e.hi));
        f.mix(static_cast<std::uint64_t>(e.lo));
    }
    return f.h;
}

std::string
emitModelSource(const Design &design)
{
    const std::uint64_t ir = designIrHash(design);
    std::ostringstream os;
    os << "// coppelia compiled model — generated, do not edit\n"
       << "// design: " << design.name() << "  signals: "
       << design.numSignals() << "  exprs: " << design.numExprs() << "\n"
       << "#include <cstdint>\n"
       << "using u64 = std::uint64_t;\n"
       << "using s64 = std::int64_t;\n"
       << "namespace {\n"
       << "inline s64 sgn(u64 b, int w) {\n"
       << "    if (w >= 64) return (s64)b;\n"
       << "    const u64 sign = 1ull << (w - 1);\n"
       << "    return (b & sign) ? (s64)(b - (sign << 1)) : (s64)b;\n"
       << "}\n"
       << "} // namespace\n\n";

    // The interpreter's schedule, printed: the settle section as
    // coppelia_eval, the latch section (next states, then commits) as
    // latch(). Temporaries are locals of the function that computes them.
    const Schedule sched(design);
    const SlotNames name(sched);
    os << "extern \"C\" void coppelia_eval(u64 *s) {\n";
    emitInstrs(sched.settleInstrs(), name, os);
    os << "}\n\n"
       << "namespace {\n"
       << "void latch(u64 *s) {\n";
    emitInstrs(sched.latchInstrs(), name, os);
    os << "}\n"
       << "} // namespace\n\n";

    os << "extern \"C\" void coppelia_latch_eval(u64 *s) {\n"
       << "    latch(s);\n"
       << "    coppelia_eval(s);\n"
       << "}\n\n"
       << "extern \"C\" u64 coppelia_num_signals(void) { return "
       << design.numSignals() << "; }\n"
       << "extern \"C\" u64 coppelia_ir_hash(void) { return " << hexLit(ir)
       << "; }\n"
       << "extern \"C\" u64 coppelia_abi_version(void) { return "
       << kCodegenAbiVersion << "; }\n";
    return os.str();
}

} // namespace coppelia::rtl::compile
