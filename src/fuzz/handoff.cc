#include "fuzz/handoff.hh"

#include <algorithm>

#include "coi/coi.hh"
#include "exploit/system.hh"
#include "metrics/metrics.hh"
#include "util/timer.hh"

namespace coppelia::fuzz
{

ConcolicBridge::ConcolicBridge(const rtl::Design &design,
                               cpu::Processor processor,
                               const props::Assertion &assertion)
    : design_(design), processor_(processor), assertion_(assertion)
{
    const coi::CoiResult coi = coi::analyze(design, assertion.vars);
    coneRegs_.assign(coi.coneRegisters.begin(), coi.coneRegisters.end());
    std::sort(coneRegs_.begin(), coneRegs_.end());
}

std::map<rtl::SignalId, std::uint64_t>
ConcolicBridge::stateAfter(const std::vector<std::uint32_t> &prefix) const
{
    exploit::CoreSystem sys(design_);
    for (std::uint32_t insn : prefix)
        sys.stepWithInsn(insn, false);
    std::map<rtl::SignalId, std::uint64_t> regs;
    for (rtl::SignalId sig = 0; sig < design_.numSignals(); ++sig) {
        if (design_.signal(sig).kind == rtl::SignalKind::Register)
            regs[sig] = sys.sim().peek(sig).bits();
    }
    return regs;
}

int
ConcolicBridge::proximity(
    const std::map<rtl::SignalId, std::uint64_t> &regs) const
{
    int off_reset = 0;
    for (rtl::SignalId sig : coneRegs_) {
        auto it = regs.find(sig);
        if (it == regs.end())
            continue;
        if (it->second != design_.signal(sig).resetValue.bits())
            ++off_reset;
    }
    return off_reset;
}

HandoffOutcome
ConcolicBridge::attempt(const std::vector<std::uint32_t> &prefix,
                        const HandoffOptions &opts,
                        bse::Options base) const
{
    static metrics::Counter *handoffs = metrics::counter(
        "fuzz_handoffs", "Concolic fuzz-to-BSEE hand-off attempts");

    Timer timer;
    HandoffOutcome out;
    out.prefix = prefix;

    const auto regs = stateAfter(prefix);
    out.proximity = proximity(regs);
    if (out.proximity < opts.minProximity) {
        out.seconds = timer.seconds();
        return out;
    }

    out.attempted = true;
    handoffs->inc();

    bse::Options eng = std::move(base);
    eng.bound = opts.bound;
    eng.timeLimitSeconds = opts.timeLimitSeconds;
    eng.initialState = regs;
    eng.validator = [this,
                     &prefix](const std::vector<bse::TriggerCycle> &cycles) {
        return replayHandoffTrigger(design_, assertion_, prefix, cycles);
    };

    bse::BackwardEngine engine(design_, std::move(eng));
    const bse::TriggerResult r = engine.buildTrigger(assertion_);
    out.engineOutcome = r.outcome;
    out.engineIterations = r.iterations;
    if (r.found()) {
        // The validator has already confirmed the combined replay.
        out.fired = true;
        const rtl::SignalId insn_sig = design_.findSignal("insn");
        for (const bse::TriggerCycle &cycle : r.cycles) {
            auto it = cycle.inputs.find(insn_sig);
            out.suffix.push_back(
                it != cycle.inputs.end()
                    ? static_cast<std::uint32_t>(it->second)
                    : 0u);
        }
    }
    out.seconds = timer.seconds();
    return out;
}

bool
replayHandoffTrigger(const rtl::Design &design,
                     const props::Assertion &assertion,
                     const std::vector<std::uint32_t> &prefix,
                     const std::vector<bse::TriggerCycle> &cycles)
{
    exploit::CoreSystem sys(design);
    for (std::uint32_t insn : prefix) {
        sys.stepWithInsn(insn, false);
        if (!sys.holds(assertion))
            return true;
    }

    const rtl::SignalId insn_sig = design.signalIdOf("insn");
    const rtl::SignalId intr_sig = design.findSignal("intr");
    const rtl::SignalId rdata_sig = design.findSignal("dmem_rdata");
    const rtl::SignalId addr_out = design.findSignal("dmem_addr_o");

    for (const bse::TriggerCycle &cycle : cycles) {
        std::uint32_t insn = 0;
        bool intr = false;
        auto ii = cycle.inputs.find(insn_sig);
        if (ii != cycle.inputs.end())
            insn = static_cast<std::uint32_t>(ii->second);
        if (intr_sig != rtl::NoSignal) {
            auto it = cycle.inputs.find(intr_sig);
            intr = it != cycle.inputs.end() && it->second != 0;
        }

        // Honor the suffix's read-data assumption by planting the assumed
        // word at the address the bus will present for this instruction
        // (a dry combinational settle reveals it before the real step).
        if (rdata_sig != rtl::NoSignal && addr_out != rtl::NoSignal) {
            auto rd = cycle.inputs.find(rdata_sig);
            if (rd != cycle.inputs.end()) {
                sys.sim().setInput(insn_sig, insn);
                if (intr_sig != rtl::NoSignal)
                    sys.sim().setInput(intr_sig, intr ? 1 : 0);
                sys.sim().evalComb();
                const std::uint32_t addr = static_cast<std::uint32_t>(
                    sys.sim().peek(addr_out).bits());
                sys.dmem().writeWord(
                    addr, static_cast<std::uint32_t>(rd->second));
            }
        }

        sys.stepWithInsn(insn, intr);
        if (!sys.holds(assertion))
            return true;
    }
    return false;
}

} // namespace coppelia::fuzz
