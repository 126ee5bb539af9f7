#include "fuzz/oracle.hh"

namespace coppelia::fuzz
{

DivergenceOracle::DivergenceOracle(const rtl::Design &design,
                                   cpu::Processor processor)
    : design_(design), processor_(processor), sys_(design)
{
    if (processor_ == cpu::Processor::PulpinoRi5cy) {
        rv32_ = std::make_unique<iss::Rv32Iss>(sys_.dmem());
        for (int i = 0; i < 32; ++i)
            gprSigs_.push_back(
                design.signalIdOf("x" + std::to_string(i)));
        privSig_ = design.signalIdOf("priv");
        mstatusSig_ = design.signalIdOf("mstatus");
        mepcSig_ = design.signalIdOf("mepc");
        mcauseSig_ = design.signalIdOf("mcause");
        mtvecSig_ = design.signalIdOf("mtvec");
    } else {
        or1k_ = std::make_unique<iss::Or1kIss>(sys_.dmem());
        for (int i = 0; i < 32; ++i)
            gprSigs_.push_back(
                design.signalIdOf("gpr" + std::to_string(i)));
        srSig_ = design.signalIdOf("sr");
        esrSig_ = design.signalIdOf("esr");
        epcrSig_ = design.signalIdOf("epcr");
        eearSig_ = design.signalIdOf("eear");
        dsPendingSig_ = design.signalIdOf("ds_pending");
    }
}

void
DivergenceOracle::reset()
{
    sys_.reset();
    sys_.dmem().clear();
    if (or1k_)
        or1k_->reset();
    if (rv32_)
        rv32_->reset();
    cycle_ = 0;
}

namespace
{

std::optional<Divergence>
mismatch(int cycle, std::uint32_t insn, const char *field,
         std::uint64_t rtl_value, std::uint64_t iss_value)
{
    if (rtl_value == iss_value)
        return std::nullopt;
    Divergence d;
    d.cycle = cycle;
    d.insn = insn;
    d.field = field;
    d.rtlValue = rtl_value;
    d.issValue = iss_value;
    return d;
}

} // namespace

std::optional<Divergence>
DivergenceOracle::compareOr1k(const exploit::CycleResult &rtl,
                              const iss::Or1kStepInfo &info)
{
    const iss::Or1kState &s = or1k_->state();
    const rtl::Simulator &sim = sys_.sim();

    if (auto d = mismatch(cycle_, rtl.insn, "store_done", rtl.storeDone,
                          info.storeDone))
        return d;
    if (info.storeDone) {
        if (auto d = mismatch(cycle_, rtl.insn, "store_addr",
                              rtl.storeAddr, info.storeAddr))
            return d;
        if (auto d = mismatch(cycle_, rtl.insn, "store_data",
                              rtl.storeData, info.storeData))
            return d;
        if (auto d = mismatch(cycle_, rtl.insn, "store_be", rtl.storeBe,
                              info.storeBe))
            return d;
    }
    if (auto d = mismatch(cycle_, rtl.insn, "pc", sys_.pc(), s.pc))
        return d;
    if (auto d = mismatch(cycle_, rtl.insn, "sr", sim.peek(srSig_).bits(),
                          s.sr))
        return d;
    if (auto d = mismatch(cycle_, rtl.insn, "esr",
                          sim.peek(esrSig_).bits(), s.esr))
        return d;
    if (auto d = mismatch(cycle_, rtl.insn, "epcr",
                          sim.peek(epcrSig_).bits(), s.epcr))
        return d;
    if (auto d = mismatch(cycle_, rtl.insn, "eear",
                          sim.peek(eearSig_).bits(), s.eear))
        return d;
    if (auto d = mismatch(cycle_, rtl.insn, "ds_pending",
                          sim.peek(dsPendingSig_).bits(),
                          s.dsPending ? 1 : 0))
        return d;
    for (int i = 0; i < 32; ++i) {
        const std::uint64_t rtl_gpr = sim.peek(gprSigs_[i]).bits();
        if (rtl_gpr != s.gpr[i]) {
            Divergence d;
            d.cycle = cycle_;
            d.insn = rtl.insn;
            d.field = "gpr";
            d.field += std::to_string(i);
            d.rtlValue = rtl_gpr;
            d.issValue = s.gpr[i];
            return d;
        }
    }
    return std::nullopt;
}

std::optional<Divergence>
DivergenceOracle::compareRv32(const exploit::CycleResult &rtl,
                              const iss::Rv32StepInfo &info)
{
    const iss::Rv32State &s = rv32_->state();
    const rtl::Simulator &sim = sys_.sim();

    if (auto d = mismatch(cycle_, rtl.insn, "store_done", rtl.storeDone,
                          info.storeDone))
        return d;
    if (info.storeDone) {
        if (auto d = mismatch(cycle_, rtl.insn, "store_addr",
                              rtl.storeAddr, info.storeAddr))
            return d;
        if (auto d = mismatch(cycle_, rtl.insn, "store_data",
                              rtl.storeData, info.storeData))
            return d;
        if (auto d = mismatch(cycle_, rtl.insn, "store_be", rtl.storeBe,
                              info.storeBe))
            return d;
    }
    if (auto d = mismatch(cycle_, rtl.insn, "pc", sys_.pc(), s.pc))
        return d;
    if (auto d = mismatch(cycle_, rtl.insn, "priv",
                          sim.peek(privSig_).bits(), s.priv ? 1 : 0))
        return d;
    if (auto d = mismatch(cycle_, rtl.insn, "mstatus",
                          sim.peek(mstatusSig_).bits(), s.mstatus))
        return d;
    if (auto d = mismatch(cycle_, rtl.insn, "mepc",
                          sim.peek(mepcSig_).bits(), s.mepc))
        return d;
    if (auto d = mismatch(cycle_, rtl.insn, "mcause",
                          sim.peek(mcauseSig_).bits(), s.mcause))
        return d;
    if (auto d = mismatch(cycle_, rtl.insn, "mtvec",
                          sim.peek(mtvecSig_).bits(), s.mtvec))
        return d;
    for (int i = 0; i < 32; ++i) {
        const std::uint64_t rtl_x = sim.peek(gprSigs_[i]).bits();
        if (rtl_x != s.x[i]) {
            Divergence d;
            d.cycle = cycle_;
            d.insn = rtl.insn;
            d.field = "x";
            d.field += std::to_string(i);
            d.rtlValue = rtl_x;
            d.issValue = s.x[i];
            return d;
        }
    }
    return std::nullopt;
}

std::optional<Divergence>
DivergenceOracle::stepCompare(std::uint32_t insn)
{
    // RTL first: its (possibly buggy) store lands in the shared memory,
    // then the golden model's store overwrites it, so loads on later
    // cycles read the golden view and a bad store is flagged exactly once
    // — at the cycle it happens, via the bus-signal compare.
    const exploit::CycleResult rtl = sys_.stepWithInsn(insn, false);
    std::optional<Divergence> d;
    if (or1k_) {
        const iss::Or1kStepInfo info = or1k_->execute(insn, false);
        d = compareOr1k(rtl, info);
    } else {
        const iss::Rv32StepInfo info = rv32_->execute(insn);
        d = compareRv32(rtl, info);
    }
    ++cycle_;
    return d;
}

std::optional<Divergence>
DivergenceOracle::runStream(const std::vector<std::uint32_t> &stream)
{
    reset();
    cyclesRun_ = 0;
    for (std::uint32_t insn : stream) {
        ++cyclesRun_;
        if (auto d = stepCompare(insn))
            return d;
    }
    return std::nullopt;
}

} // namespace coppelia::fuzz
