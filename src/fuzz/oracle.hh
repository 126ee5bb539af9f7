/**
 * @file
 * The ISS-vs-RTL divergence oracle: lockstep execution of one instruction
 * stream on the RTL core (via the CoreSystem testbench) and the golden
 * instruction-set simulator, sharing one data memory, comparing the full
 * architectural state after every retired instruction — pc, the register
 * file, the privilege/exception registers, and the store effects on the
 * data bus (address, data, byte enables).
 *
 * Unlike the assertion-driven BSEE flow, the oracle needs no security
 * property: any injected (or unknown) bug that perturbs architectural
 * state under some instruction sequence shows up as a divergence, which
 * the fuzzer then minimizes to a shortest reproducing stream.
 */

#ifndef COPPELIA_FUZZ_ORACLE_HH
#define COPPELIA_FUZZ_ORACLE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cpu/bugs.hh"
#include "exploit/system.hh"
#include "iss/or1k_iss.hh"
#include "iss/rv32_iss.hh"

namespace coppelia::fuzz
{

/** One architectural mismatch between the RTL core and the golden model. */
struct Divergence
{
    int cycle = 0;            ///< stream index of the diverging instruction
    std::uint32_t insn = 0;   ///< the instruction word executed that cycle
    std::string field;        ///< what mismatched ("pc", "gpr3", "store_be"…)
    std::uint64_t rtlValue = 0;
    std::uint64_t issValue = 0;
};

/** Lockstep RTL + ISS executor for one (design, processor) pair. */
class DivergenceOracle
{
  public:
    DivergenceOracle(const rtl::Design &design, cpu::Processor processor);

    /** Reset both models and clear the shared data memory. */
    void reset();

    /**
     * Execute one instruction on both models and compare. The RTL side
     * steps first so the shared memory holds the golden model's view of
     * every store afterwards; store-effect mismatches are caught by
     * comparing the bus signals, not the memory content.
     * @return the first mismatch, or nullopt when the models agree.
     */
    std::optional<Divergence> stepCompare(std::uint32_t insn);

    /** Reset, then run a whole stream; stops at the first divergence. */
    std::optional<Divergence>
    runStream(const std::vector<std::uint32_t> &stream);

    /** Cycles executed by the last runStream call (≤ stream length). */
    int cyclesRun() const { return cyclesRun_; }

    /** The RTL testbench (attach coverage observers, snapshot state). */
    exploit::CoreSystem &system() { return sys_; }
    const exploit::CoreSystem &system() const { return sys_; }

  private:
    std::optional<Divergence>
    compareOr1k(const exploit::CycleResult &rtl,
                const iss::Or1kStepInfo &info);
    std::optional<Divergence>
    compareRv32(const exploit::CycleResult &rtl,
                const iss::Rv32StepInfo &info);

    const rtl::Design &design_;
    cpu::Processor processor_;
    exploit::CoreSystem sys_;
    std::unique_ptr<iss::Or1kIss> or1k_;
    std::unique_ptr<iss::Rv32Iss> rv32_;
    int cycle_ = 0;
    int cyclesRun_ = 0;

    // Cached signal ids for the per-cycle compares (name lookups are
    // string-map hits; the oracle does thousands of compares per second).
    std::vector<rtl::SignalId> gprSigs_;
    rtl::SignalId srSig_ = rtl::NoSignal;
    rtl::SignalId esrSig_ = rtl::NoSignal;
    rtl::SignalId epcrSig_ = rtl::NoSignal;
    rtl::SignalId eearSig_ = rtl::NoSignal;
    rtl::SignalId dsPendingSig_ = rtl::NoSignal;
    rtl::SignalId privSig_ = rtl::NoSignal;
    rtl::SignalId mstatusSig_ = rtl::NoSignal;
    rtl::SignalId mepcSig_ = rtl::NoSignal;
    rtl::SignalId mcauseSig_ = rtl::NoSignal;
    rtl::SignalId mtvecSig_ = rtl::NoSignal;
};

} // namespace coppelia::fuzz

#endif // COPPELIA_FUZZ_ORACLE_HH
