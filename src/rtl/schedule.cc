#include "rtl/schedule.hh"

#include <algorithm>
#include <unordered_map>

#include "util/logging.hh"

namespace coppelia::rtl
{

namespace
{

constexpr std::uint32_t kNoSlot = ~0u;

/** Mask of the low @p w bits, 1 <= w <= 64. */
inline std::uint64_t
lowMask(unsigned w)
{
    return ~0ull >> (64 - w);
}

/** A @p w-bit word read as two's complement (Value::toInt). */
inline std::int64_t
signedOf(std::uint64_t v, unsigned w)
{
    const unsigned sh = 64 - w;
    return static_cast<std::int64_t>(v << sh) >> sh;
}

} // namespace

/**
 * Lays out slots and emits instructions. Each ExprRef gets at most one
 * slot: Signal nodes alias their signal's word, Const nodes a constant
 * slot, and a wire's defining node the wire's own word; every other node
 * gets a temporary when first computed.
 */
class Schedule::Builder
{
  public:
    Builder(const Design &design, Schedule &out)
        : design_(design), out_(out),
          slot_(static_cast<std::size_t>(design.numExprs()), kNoSlot),
          done_(static_cast<std::size_t>(design.numExprs()), 0)
    {
        out_.numSignals_ = design.numSignals();
        next_ = static_cast<std::uint32_t>(design.numSignals());
    }

    /** Record the signals operands read (ofRoots schedules). */
    void
    trackReads()
    {
        readSeen_.assign(static_cast<std::size_t>(design_.numSignals()), 0);
    }

    /** Start a section: nodes computed by earlier sections are computed
     *  again, except those held in signal words (the settled wires). */
    void
    beginSection(bool latch)
    {
        latch_ = latch;
        std::fill(done_.begin(), done_.end(), 0);
    }

    /** Route @p ref's value into signal @p sig's word when no other
     *  signal claimed it first. */
    void
    claim(ExprRef ref, SignalId sig)
    {
        const Op op = design_.expr(ref).op;
        if (op != Op::Const && op != Op::Signal && slot_[ref] == kNoSlot)
            slot_[ref] = static_cast<std::uint32_t>(sig);
    }

    /** Emit every not-yet-computed node of @p root's tree, children
     *  first, and return the slot holding its value. Iterative: deep mux
     *  chains would overflow the C stack. */
    std::uint32_t
    emit(ExprRef root)
    {
        stack_.clear();
        stack_.push_back({root, false});
        while (!stack_.empty()) {
            const auto [r, expanded] = stack_.back();
            stack_.pop_back();
            if (ready(r))
                continue;
            const Expr &e = design_.expr(r);
            if (!expanded) {
                stack_.push_back({r, true});
                for (ExprRef arg : e.args) {
                    if (arg != NoExpr && !ready(arg))
                        stack_.push_back({arg, false});
                }
                continue;
            }
            Instr in;
            in.op = e.op;
            in.width = static_cast<std::uint8_t>(e.width);
            switch (e.op) {
              case Op::Extract:
                in.aux = static_cast<std::uint8_t>(e.lo);
                break;
              case Op::Concat:
                in.aux = static_cast<std::uint8_t>(
                    design_.widthOf(e.args[1]));
                break;
              case Op::RedAnd:
              case Op::AShr:
              case Op::Slt:
              case Op::Sle:
              case Op::SExt:
                in.aux = static_cast<std::uint8_t>(
                    design_.widthOf(e.args[0]));
                break;
              default:
                break;
            }
            in.a = slotOf(e.args[0]);
            in.b = e.args[1] != NoExpr ? slotOf(e.args[1]) : in.a;
            in.c = e.args[2] != NoExpr ? slotOf(e.args[2]) : in.a;
            if (slot_[r] == kNoSlot)
                slot_[r] = next_++;
            in.dst = slot_[r];
            out_.instrs_.push_back(in);
            done_[r] = 1;
        }
        return slotOf(root);
    }

    /** A fresh temporary slot. */
    std::uint32_t temp() { return next_++; }

    /** Append slots[dst] = slots[src] (@p width-bit words). */
    void
    copy(std::uint32_t dst, std::uint32_t src, int width)
    {
        Instr in;
        in.op = Op::ZExt;
        in.width = static_cast<std::uint8_t>(width);
        in.dst = dst;
        in.a = in.b = in.c = src;
        out_.instrs_.push_back(in);
    }

    void finish() { out_.numSlots_ = next_; }

  private:
    /** Whether @p r needs no instruction in the current section. */
    bool
    ready(ExprRef r) const
    {
        const Op op = design_.expr(r).op;
        if (op == Op::Const || op == Op::Signal || done_[r])
            return true;
        // The latch runs on a settled state: a node held in a wire's word
        // is current there.
        return latch_ && slot_[r] < static_cast<std::uint32_t>(
                                        out_.numSignals_);
    }

    /** The slot of an operand, allocating Signal and Const slots. */
    std::uint32_t
    slotOf(ExprRef r)
    {
        const Expr &e = design_.expr(r);
        if (e.op == Op::Signal) {
            if (!readSeen_.empty() && !readSeen_[e.sig]) {
                readSeen_[e.sig] = 1;
                out_.reads_.push_back(e.sig);
            }
            return static_cast<std::uint32_t>(e.sig);
        }
        if (slot_[r] != kNoSlot)
            return slot_[r];
        if (e.op != Op::Const)
            panic("schedule: operand ", r, " used before it was computed");
        const std::uint64_t v = e.imm & widthMask(e.width);
        auto [it, fresh] = constSlot_.emplace(v, next_);
        if (fresh) {
            out_.constants_.emplace_back(next_, v);
            ++next_;
        }
        slot_[r] = it->second;
        return it->second;
    }

    const Design &design_;
    Schedule &out_;
    std::vector<std::uint32_t> slot_;
    std::vector<char> done_;
    std::vector<char> readSeen_;
    std::unordered_map<std::uint64_t, std::uint32_t> constSlot_;
    std::vector<std::pair<ExprRef, bool>> stack_;
    std::uint32_t next_ = 0;
    bool latch_ = false;
};

Schedule::Schedule(const Design &design)
{
    Builder b(design, *this);
    b.beginSection(false);
    const std::vector<SignalId> &topo = design.topoWires();
    for (SignalId w : topo) {
        if (design.signal(w).def != NoExpr)
            b.claim(design.signal(w).def, w);
    }
    // Undriven wires emit nothing: reset zeroes them and nothing else
    // writes a wire's word.
    for (SignalId w : topo) {
        const Signal &s = design.signal(w);
        if (s.def == NoExpr)
            continue;
        const std::uint32_t src = b.emit(s.def);
        if (src != static_cast<std::uint32_t>(w))
            b.copy(static_cast<std::uint32_t>(w), src, s.width);
    }
    latchBegin_ = instrs_.size();

    b.beginSection(true);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> commits;
    std::vector<std::uint32_t> staged(
        static_cast<std::size_t>(design.numSignals()), kNoSlot);
    for (SignalId sig = 0; sig < design.numSignals(); ++sig) {
        const Signal &s = design.signal(sig);
        if (s.kind != SignalKind::Register || s.def == NoExpr)
            continue;
        std::uint32_t src = b.emit(s.def);
        if (src == static_cast<std::uint32_t>(sig))
            continue; // holds its value
        if (src < static_cast<std::uint32_t>(design.numSignals()) &&
            design.signal(static_cast<SignalId>(src)).kind ==
                SignalKind::Register) {
            // Another register's word changes during the commit: read it
            // into a temporary first.
            if (staged[src] == kNoSlot) {
                staged[src] = b.temp();
                b.copy(staged[src], src, s.width);
            }
            src = staged[src];
        }
        commits.emplace_back(static_cast<std::uint32_t>(sig), src);
    }
    for (const auto &[reg, src] : commits)
        b.copy(reg, src, design.signal(static_cast<SignalId>(reg)).width);
    b.finish();
}

Schedule
Schedule::ofRoots(const Design &design, const std::vector<ExprRef> &roots)
{
    Schedule out;
    Builder b(design, out);
    b.trackReads();
    b.beginSection(false);
    for (ExprRef root : roots)
        out.rootSlots_.push_back(b.emit(root));
    out.latchBegin_ = out.instrs_.size();
    b.finish();
    return out;
}

void
Schedule::loadConstants(std::uint64_t *slots) const
{
    for (const auto &[slot, value] : constants_)
        slots[slot] = value;
}

void
Schedule::run(std::span<const Instr> instrs, std::uint64_t *s)
{
    // Operand words are masked to their widths, so only results that can
    // carry bits past their width are masked (Design::eval's semantics).
    for (const Instr &in : instrs) {
        const std::uint64_t a = s[in.a];
        std::uint64_t v;
        switch (in.op) {
          case Op::Not: v = ~a & lowMask(in.width); break;
          case Op::Neg: v = (~a + 1) & lowMask(in.width); break;
          case Op::RedOr: v = a != 0; break;
          case Op::RedAnd: v = a == lowMask(in.aux); break;
          case Op::RedXor: v = __builtin_parityll(a); break;
          case Op::And: v = a & s[in.b]; break;
          case Op::Or: v = a | s[in.b]; break;
          case Op::Xor: v = a ^ s[in.b]; break;
          case Op::Add: v = (a + s[in.b]) & lowMask(in.width); break;
          case Op::Sub: v = (a - s[in.b]) & lowMask(in.width); break;
          case Op::Mul: v = (a * s[in.b]) & lowMask(in.width); break;
          case Op::Shl: {
            const std::uint64_t sh = s[in.b];
            v = sh >= 64 ? 0 : (a << sh) & lowMask(in.width);
            break;
          }
          case Op::LShr: {
            const std::uint64_t sh = s[in.b];
            v = sh >= 64 ? 0 : a >> sh;
            break;
          }
          case Op::AShr: {
            const std::uint64_t sh = s[in.b];
            const std::int64_t sa = signedOf(a, in.aux);
            v = (sh >= 63 ? (sa < 0 ? ~0ull : 0ull)
                          : static_cast<std::uint64_t>(sa >> sh)) &
                lowMask(in.width);
            break;
          }
          case Op::Eq: v = a == s[in.b]; break;
          case Op::Ne: v = a != s[in.b]; break;
          case Op::Ult: v = a < s[in.b]; break;
          case Op::Ule: v = a <= s[in.b]; break;
          case Op::Slt:
            v = signedOf(a, in.aux) < signedOf(s[in.b], in.aux);
            break;
          case Op::Sle:
            v = signedOf(a, in.aux) <= signedOf(s[in.b], in.aux);
            break;
          case Op::Concat: v = (a << in.aux) | s[in.b]; break;
          case Op::Extract: v = (a >> in.aux) & lowMask(in.width); break;
          case Op::ZExt: v = a; break;
          case Op::SExt:
            v = static_cast<std::uint64_t>(signedOf(a, in.aux)) &
                lowMask(in.width);
            break;
          case Op::Ite: v = a != 0 ? s[in.b] : s[in.c]; break;
          default:
            panic("schedule: unhandled op ", opName(in.op));
        }
        s[in.dst] = v;
    }
}

} // namespace coppelia::rtl
