/**
 * @file
 * The levelized schedule both simulation backends run. A design's
 * expression DAG is flattened once into straight-line instructions over a
 * dense array of 64-bit slots:
 *
 *  - slots [0, numSignals) hold one word per signal, indexed by SignalId
 *    (every signal is 1..64 bits wide);
 *  - the slots above them hold the constants the instructions read and
 *    one temporary per computed expression node.
 *
 * A simulation schedule has two sections. The settle section evaluates
 * the wire definitions in Design::topoWires() order; a wire's defining
 * node writes straight into the wire's slot. The latch section evaluates
 * every register's next-state expression against the settled pre-edge
 * state, then commits them all (non-blocking semantics). Each section
 * lists a node once, children first, so a settle is one linear sweep and
 * so is a latch. The interpreter runs the instructions
 * (Schedule::settle / Schedule::latch); src/rtl/compile/codegen.cc prints
 * the same instructions as C++ for the compiled backend.
 *
 * A schedule over arbitrary root expressions (Schedule::ofRoots) has only
 * a settle section; the fuzzer's coverage map evaluates its branch
 * conditions with one. Results match Design::eval bit for bit.
 */

#ifndef COPPELIA_RTL_SCHEDULE_HH
#define COPPELIA_RTL_SCHEDULE_HH

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "rtl/design.hh"

namespace coppelia::rtl
{

/**
 * One schedule instruction: slots[dst] = op(slots[a], slots[b], slots[c]).
 * Const and Signal nodes never appear (they are slots), and Op::ZExt
 * doubles as a plain copy: operand words are already masked to their
 * widths, so zero-extension moves the word unchanged.
 */
struct Instr
{
    Op op = Op::ZExt;
    std::uint8_t width = 1; ///< result width
    /** Extract: the low bit; Concat: the low part's width; RedAnd, AShr,
     *  Slt, Sle, SExt: the first operand's width. */
    std::uint8_t aux = 0;
    std::uint32_t dst = 0;
    std::uint32_t a = 0, b = 0, c = 0;
};

/** A flattened, immutable evaluation order over one design. */
class Schedule
{
  public:
    /** The simulation schedule: wires, then register next-states. */
    explicit Schedule(const Design &design);

    /** Evaluation of @p roots over the signal words they read; the value
     *  of roots[i] lands in rootSlots()[i]. */
    static Schedule ofRoots(const Design &design,
                            const std::vector<ExprRef> &roots);

    /** Slots a state array needs (signal words first). */
    std::size_t numSlots() const { return numSlots_; }
    int numSignals() const { return numSignals_; }

    /** Write the constant slots; a fresh state array needs this once. */
    void loadConstants(std::uint64_t *slots) const;

    /** Run the settle section (a simulation schedule's wires, or every
     *  root of an ofRoots schedule). */
    void settle(std::uint64_t *slots) const { run(settleInstrs(), slots); }

    /** Compute every register's next state and commit them. Valid only
     *  on a settled state: wire slots are read, not recomputed. */
    void latch(std::uint64_t *slots) const { run(latchInstrs(), slots); }

    std::span<const Instr>
    settleInstrs() const
    {
        return {instrs_.data(), latchBegin_};
    }

    std::span<const Instr>
    latchInstrs() const
    {
        return std::span<const Instr>(instrs_).subspan(latchBegin_);
    }

    /** (slot, value) of every constant slot. */
    const std::vector<std::pair<std::uint32_t, std::uint64_t>> &
    constants() const
    {
        return constants_;
    }

    /** ofRoots only: where each root's value lands, and the signals the
     *  instructions read (the words a caller copies in before settle()). */
    const std::vector<std::uint32_t> &rootSlots() const { return rootSlots_; }
    const std::vector<SignalId> &reads() const { return reads_; }

  private:
    class Builder;
    Schedule() = default;

    static void run(std::span<const Instr> instrs, std::uint64_t *s);

    std::vector<Instr> instrs_;
    std::size_t latchBegin_ = 0;
    std::vector<std::pair<std::uint32_t, std::uint64_t>> constants_;
    std::vector<std::uint32_t> rootSlots_;
    std::vector<SignalId> reads_;
    std::size_t numSlots_ = 0;
    int numSignals_ = 0;
};

} // namespace coppelia::rtl

#endif // COPPELIA_RTL_SCHEDULE_HH
