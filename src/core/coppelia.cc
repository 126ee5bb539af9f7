#include "core/coppelia.hh"

#include "util/logging.hh"

namespace coppelia::core
{

const char *
patchVerdictName(PatchVerdict v)
{
    switch (v) {
      case PatchVerdict::Pass: return "pass";
      case PatchVerdict::BugNotFixed: return "bug-not-fixed";
      case PatchVerdict::WrongAssertion: return "wrong-assertion";
      case PatchVerdict::Inconclusive: return "inconclusive";
    }
    return "?";
}

Coppelia::Coppelia(const rtl::Design &design, cpu::Processor processor,
                   CoppeliaOptions opts)
    : design_(design), processor_(processor), opts_(std::move(opts))
{}

coi::CoiStats
Coppelia::coneStats(const props::Assertion &assertion) const
{
    return coi::analyze(design_, assertion.vars).stats;
}

ExploitResult
Coppelia::generateExploit(const props::Assertion &assertion)
{
    ExploitResult res;

    // Phase 2: build the trigger with the backward engine. Replay
    // validation is fed back into the search (paper Figure 1: the exploit
    // is validated on the board; a non-replayable candidate sends the
    // engine back for a different test case).
    bse::Options engine_opts = opts_.engine;
    if (opts_.validateByReplay) {
        const rtl::Design &design = design_;
        const props::Assertion &a = assertion;
        const rtl::SimBackend backend = opts_.simBackend;
        engine_opts.validator =
            [&design, &a,
             backend](const std::vector<bse::TriggerCycle> &cycles) {
                return exploit::replayTriggerCycles(design, a, cycles,
                                                    backend);
            };
    }
    bse::BackwardEngine engine(design_, engine_opts);
    bse::TriggerResult trigger = engine.buildTrigger(assertion);
    // A search that ended NoViolation at its first iteration never had a
    // depth-1 candidate, the only place the engine reads
    // pinAssertionState, so a flipped retry would replay its queries.
    const bool never_pinned = trigger.outcome == bse::Outcome::NoViolation &&
                              trigger.iterations == 1;
    if (!trigger.found() && !never_pinned) {
        // Retry with the forged-state pinning flipped: some violations
        // need the assertion's reset-valued state captured exactly, and
        // others are hindered by it.
        bse::Options retry_opts = engine_opts;
        retry_opts.pinAssertionState = !engine_opts.pinAssertionState;
        bse::BackwardEngine retry(design_, retry_opts);
        bse::TriggerResult second = retry.buildTrigger(assertion);
        second.seconds += trigger.seconds;
        second.iterations += trigger.iterations;
        second.solverIncomplete |= trigger.solverIncomplete;
        // Keep the first attempt's solver/search counters: dropping them
        // would leave the JSONL stats short of the work actually done
        // (and out of step with the live metrics registry).
        second.stats.merge(trigger.stats);
        trigger = std::move(second);
    }
    res.outcome = trigger.outcome;
    res.solverIncomplete = trigger.solverIncomplete;
    res.seconds = trigger.seconds;
    res.iterations = trigger.iterations;
    res.stats = trigger.stats;
    if (!trigger.found())
        return res;
    res.triggerInstructions = static_cast<int>(trigger.cycles.size());

    // Phase 3: append the payload stub and emit the program.
    if (!opts_.addPayload) {
        // Trigger-only mode still validates replayability.
        if (opts_.validateByReplay) {
            res.replay.triggerFired = exploit::replayTriggerCycles(
                design_, assertion, trigger.cycles, opts_.simBackend);
            res.replay.payloadEffect = true;
        }
        return res;
    }
    exploit::Exploit e = exploit::assembleExploit(design_, assertion,
                                                  trigger, processor_);

    // Phase 4: validate on the replay substrate.
    if (opts_.validateByReplay)
        res.replay =
            exploit::replayExploit(design_, assertion, e, opts_.simBackend);
    res.exploit = std::move(e);
    return res;
}

PatchVerdict
verifyPatch(const DesignUnderTest &buggy, const DesignUnderTest &patched,
            const DesignUnderTest &reference, cpu::Processor processor,
            const CoppeliaOptions &opts)
{
    Coppelia on_buggy(*buggy.design, processor, opts);
    Coppelia on_patched(*patched.design, processor, opts);

    ExploitResult before = on_buggy.generateExploit(*buggy.assertion);
    if (!before.found())
        warn("verifyPatch: no exploit on the buggy design for ",
             buggy.assertion->id);

    ExploitResult after = on_patched.generateExploit(*patched.assertion);
    if (!after.found()) {
        const bool complete = after.outcome == bse::Outcome::NoViolation &&
                              !after.solverIncomplete;
        return complete ? PatchVerdict::Pass : PatchVerdict::Inconclusive;
    }

    // Still exploitable: wrong assertion if even the fully-correct design
    // violates it, otherwise the patch is incomplete.
    Coppelia on_reference(*reference.design, processor, opts);
    ExploitResult ref = on_reference.generateExploit(*reference.assertion);
    return ref.found() ? PatchVerdict::WrongAssertion
                       : PatchVerdict::BugNotFixed;
}

} // namespace coppelia::core
