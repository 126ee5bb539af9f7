/**
 * @file
 * Cycle-accurate concrete simulator over rtl::Design, mirroring the
 * structure of Verilator-generated C++: an eval() that settles combinational
 * logic with inputs held stable, and a clock edge that latches registers.
 * One simulated clock cycle is two eval() calls (paper §II-B): one with the
 * new inputs applied and one after the register latch, so downstream wires
 * reflect the new register state.
 *
 * State is one array of raw 64-bit words: one per signal, indexed by
 * SignalId, followed by the constant and temporary slots of the levelized
 * schedule every settle and latch sweeps (rtl/schedule.hh). A settle
 * runs only when an input or register changed since the last one, so
 * step() after an evalComb() with nothing set in between latches at once.
 *
 * This simulator doubles as the "FPGA board" stand-in: exploit replay runs
 * the generated instruction stream on it from reset and watches assertions.
 */

#ifndef COPPELIA_RTL_SIM_HH
#define COPPELIA_RTL_SIM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rtl/design.hh"

namespace coppelia::rtl
{

class Schedule;
class Simulator;

/**
 * Per-cycle simulation hook: attached observers see the settled post-edge
 * state after every step(). Used by the instruction fuzzer's coverage map;
 * the dispatch is a single null-pointer test on the hot path.
 */
class StepObserver
{
  public:
    virtual ~StepObserver() = default;

    /** Called once per step(), after the final settle. */
    virtual void onStep(const Simulator &sim) = 0;
};

/** Concrete two-phase simulator. */
class Simulator
{
  public:
    explicit Simulator(const Design &design);

    /** Reset: registers take their reset values, inputs go to zero. */
    void reset();

    /** Drive an input for the upcoming cycle. */
    void setInput(SignalId sig, std::uint64_t bits);
    void setInput(const std::string &name, std::uint64_t bits);

    /**
     * Advance one clock cycle: settle combinational logic with current
     * inputs (skipped when nothing changed since the last settle), latch
     * registers, settle again. Counts as two eval() calls.
     */
    void step();

    /** Settle combinational logic without clocking (half-cycle eval);
     *  already settled when nothing changed since the last settle. */
    void evalComb();

    /** Read the current value of any signal (wire values are as of the last
     * settle). */
    Value peek(SignalId sig) const;
    Value peek(const std::string &name) const;

    /** The raw word of @p sig (masked to its width); unchecked. */
    std::uint64_t word(SignalId sig) const { return state_[sig]; }

    /** Total eval() invocations so far (two per step()). */
    std::uint64_t evalCount() const { return evalCount_; }

    /** Cycles since the last reset. */
    std::uint64_t cycle() const { return cycle_; }

    /** Every signal's current value, indexed by SignalId: a copy built on
     *  each call, for assertion checks and tests. */
    std::vector<Value> env() const;

    /** Force a register to an arbitrary value (used by the BMC baseline to
     * replay counterexamples that start from non-reset states). */
    void pokeRegister(SignalId sig, std::uint64_t bits);

    /**
     * Attach (or with nullptr detach) the per-cycle observer. At most one
     * observer is attached at a time; the pointer is not owned.
     */
    void setObserver(StepObserver *observer) { observer_ = observer; }

    StepObserver *observer() const { return observer_; }

  private:
    /** Run the settle pass on the current inputs and registers. */
    void settle();

    const Design &design_;
    /** The schedule every settle and latch sweeps, shared by copies. */
    std::shared_ptr<const Schedule> schedule_;
    /** Signal words by SignalId; the schedule's slots follow. */
    std::vector<std::uint64_t> state_;
    /** No input or register changed since the last settle. */
    bool settled_ = false;
    std::uint64_t evalCount_ = 0;
    std::uint64_t cycle_ = 0;
    StepObserver *observer_ = nullptr;
};

} // namespace coppelia::rtl

#endif // COPPELIA_RTL_SIM_HH
