/**
 * @file
 * §IV-G reproduced as an example: use Coppelia to verify whether a
 * security patch actually fixed a vulnerability, and to refine an
 * assertion set. Demonstrates three verdicts: a complete fix (b03), the
 * incomplete b20 comparator patch, and a "not true" assertion that fires
 * on the fully-correct design. A fix only passes when the patched search
 * completes; one that runs out of budget first is "inconclusive".
 *
 * Build & run:  ./build/examples/patch_check
 */

#include <cstdio>

#include "core/coppelia.hh"
#include "cpu/bugs.hh"
#include "cpu/or1k/core.hh"

using namespace coppelia;

namespace
{

core::CoppeliaOptions
options(const rtl::Design &design)
{
    const rtl::Design *d = &design;
    core::CoppeliaOptions opts;
    opts.engine.bound = 6;
    opts.engine.timeLimitSeconds = 60;
    opts.engine.maxFeedbackRounds = 16;
    opts.engine.preconditions =
        [d](smt::TermManager &tm,
            const sym::BoundState &bs) -> std::vector<smt::TermRef> {
        std::vector<smt::TermRef> out =
            cpu::or1k::stateAssumptions(tm, *d, bs.regVars);
        for (const auto &[sig, var] : bs.inputVars) {
            (void)sig;
            if (tm.varWidth(tm.term(var).varId) == 32)
                out.push_back(cpu::or1k::legalInsnConstraint(tm, var));
        }
        return out;
    };
    return opts;
}

void
checkPatch(cpu::BugId id, const char *assert_id)
{
    rtl::Design buggy = cpu::or1k::buildOr1200(cpu::BugConfig::with(id));
    cpu::BugConfig pc;
    pc.set(id, cpu::BugState::Patched);
    rtl::Design patched = cpu::or1k::buildOr1200(pc);
    rtl::Design reference = cpu::or1k::buildOr1200();

    auto ba = cpu::or1k::or1200Assertions(buggy);
    auto pa = cpu::or1k::or1200Assertions(patched);
    auto ra = cpu::or1k::or1200Assertions(reference);

    core::PatchVerdict v = core::verifyPatch(
        {&buggy, &props::findAssertion(ba, assert_id)},
        {&patched, &props::findAssertion(pa, assert_id)},
        {&reference, &props::findAssertion(ra, assert_id)},
        cpu::Processor::OR1200, options(reference));

    std::printf("  %s patch for %s: %s\n", cpu::bugName(id).c_str(),
                assert_id, core::patchVerdictName(v));
    if (v == core::PatchVerdict::Inconclusive)
        std::printf("  (the patched search ran out of budget before it "
                    "could rule the violation out)\n");
}

} // namespace

int
main()
{
    std::printf("=== Patch verification and assertion refinement "
                "(§IV-G) ===\n\n");

    std::printf("Complete fix — the exploit disappears after patching:\n");
    checkPatch(cpu::BugId::b03, "a03_rfe_restores_sr");

    std::printf("\nIncomplete fix — the patched comparator still fails "
                "for both-MSBs-set operands:\n");
    checkPatch(cpu::BugId::b20, "a20_sf_unsigned_gt");

    std::printf("\nWrong assertion — it fires even on the fully-correct "
                "design, so the\nassertion (not the hardware) needs "
                "refining:\n");
    {
        rtl::Design reference = cpu::or1k::buildOr1200();
        auto ra = cpu::or1k::or1200Assertions(reference);
        const props::Assertion &wrong =
            props::findAssertion(ra, "aw4_sm_fall_rfe");
        core::PatchVerdict v = core::verifyPatch(
            {&reference, &wrong}, {&reference, &wrong},
            {&reference, &wrong}, cpu::Processor::OR1200,
            options(reference));
        std::printf("  aw4_sm_fall_rfe (\"%s\"): %s\n",
                    wrong.description.c_str(),
                    core::patchVerdictName(v));
    }

    std::printf("\nA passing patch plus a refined assertion set is the "
                "paper's Table VII output.\n");
    return 0;
}
