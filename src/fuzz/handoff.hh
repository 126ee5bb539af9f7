/**
 * @file
 * Concolic hand-off from the fuzzer to the backward symbolic execution
 * engine. The fuzzer is good at reaching deep, weird microarchitectural
 * states cheaply; the BSEE is good at closing the last few cycles to an
 * assertion violation but pays exponentially for depth. The bridge
 * combines them: snapshot the concrete register state a fuzzed stream
 * reaches, measure how close it is to the assertion's cone of influence
 * (registers in the cone moved off their reset values), and when it looks
 * promising, run a short-horizon BSEE search *from the snapshot* by
 * substituting it for the architectural reset state
 * (bse::Options::initialState). A found suffix is validated by replaying
 * the concrete prefix followed by the suffix's input cycles from real
 * reset and checking that the assertion fires — so a fired hand-off is a
 * full replayable trigger whose depth the same BSEE budget could not
 * reach on its own.
 */

#ifndef COPPELIA_FUZZ_HANDOFF_HH
#define COPPELIA_FUZZ_HANDOFF_HH

#include <cstdint>
#include <map>
#include <vector>

#include "bse/engine.hh"
#include "cpu/bugs.hh"
#include "props/assertion.hh"
#include "rtl/design.hh"

namespace coppelia::fuzz
{

/** Hand-off budget knobs. */
struct HandoffOptions
{
    /** BSEE suffix bound — deliberately short; depth comes from the
     *  concrete prefix. */
    int bound = 3;
    /** Wall-clock limit for one suffix search (0 = unlimited). */
    double timeLimitSeconds = 10.0;
    /** Only snapshots with at least this many cone registers off their
     *  reset values are worth a solver call. */
    int minProximity = 1;
};

/** One hand-off attempt's outcome. */
struct HandoffOutcome
{
    bool attempted = false; ///< snapshot met the proximity threshold
    bool fired = false;     ///< suffix found and the combined replay
                            ///< violates the assertion from real reset
    int proximity = 0;      ///< cone registers off reset in the snapshot
    std::vector<std::uint32_t> prefix; ///< concrete fuzzed stream
    std::vector<std::uint32_t> suffix; ///< instruction words of the suffix
    bse::Outcome engineOutcome = bse::Outcome::NoViolation;
    int engineIterations = 0;
    double seconds = 0.0;
};

/** The fuzz→BSEE bridge for one (design, processor, assertion) triple. */
class ConcolicBridge
{
  public:
    ConcolicBridge(const rtl::Design &design, cpu::Processor processor,
                   const props::Assertion &assertion);

    /** Registers in the assertion's cone of influence (§II-D3 set). */
    const std::vector<rtl::SignalId> &coneRegisters() const
    {
        return coneRegs_;
    }

    /** Replay @p prefix from reset and capture every register's value. */
    std::map<rtl::SignalId, std::uint64_t>
    stateAfter(const std::vector<std::uint32_t> &prefix) const;

    /** Cone registers whose value differs from architectural reset. */
    int proximity(
        const std::map<rtl::SignalId, std::uint64_t> &regs) const;

    /**
     * Snapshot the prefix's end state and, if it clears the proximity
     * threshold, run the short-horizon BSEE search from it. @p base
     * carries the caller's solver configuration (preconditions, budgets);
     * bound, time limit, initialState, and validator are overridden here.
     */
    HandoffOutcome attempt(const std::vector<std::uint32_t> &prefix,
                           const HandoffOptions &opts,
                           bse::Options base = {}) const;

  private:
    const rtl::Design &design_;
    cpu::Processor processor_;
    const props::Assertion &assertion_;
    std::vector<rtl::SignalId> coneRegs_;
};

/**
 * Combined replay: run @p prefix instruction words from reset on the
 * memory-coupled testbench, then drive the suffix's input cycles
 * (planting each cycle's assumed read data into memory first). True when
 * the assertion is violated at any cycle boundary.
 */
bool replayHandoffTrigger(const rtl::Design &design,
                          const props::Assertion &assertion,
                          const std::vector<std::uint32_t> &prefix,
                          const std::vector<bse::TriggerCycle> &cycles);

} // namespace coppelia::fuzz

#endif // COPPELIA_FUZZ_HANDOFF_HH
