/**
 * @file
 * Regenerates Table VII: the §IV-G patch-verification / assertion-
 * refinement study. Each bug-linked assertion runs the buggy -> patched
 * -> reference pipeline; the standalone assertions run against the
 * reference design only. Expected split (paper): 29 pass, 2 fail because
 * the patch did not fix the bug (incomplete fixes for b20 and b22), and 4
 * fail because the assertion is not a true assertion. A patched search
 * that ends without a complete no-violation verdict (budget or bound
 * exhausted, or a solver query left Unknown) is counted as inconclusive,
 * a row the paper does not have.
 */

#include "bench_common.hh"

#include "cpu/bugs.hh"

using namespace coppelia;
using namespace coppelia::bench;

int
main()
{
    std::printf("Table VII: security patch verification over the 35 "
                "OR1200 assertions\n\n");

    rtl::Design reference = cpu::or1k::buildOr1200();
    auto ref_asserts = cpu::or1k::or1200Assertions(reference);

    int pass = 0, not_fixed = 0, wrong = 0, inconclusive = 0;
    std::vector<std::string> not_fixed_ids, wrong_ids, inconclusive_ids;

    for (const props::Assertion &ref_a : ref_asserts) {
        core::PatchVerdict verdict;
        if (!ref_a.bugId.empty()) {
            // Bug-linked: exploit expected on the buggy design and none
            // after the patch.
            cpu::BugId id = cpu::BugId::b01;
            for (const cpu::BugInfo &b : cpu::bugRegistry()) {
                if (b.name == ref_a.bugId)
                    id = b.id;
            }
            rtl::Design buggy =
                cpu::or1k::buildOr1200(cpu::BugConfig::with(id));
            cpu::BugConfig pc;
            pc.set(id, cpu::BugState::Patched);
            rtl::Design patched = cpu::or1k::buildOr1200(pc);
            auto ba = cpu::or1k::or1200Assertions(buggy);
            auto pa = cpu::or1k::or1200Assertions(patched);
            verdict = core::verifyPatch(
                {&buggy, &props::findAssertion(ba, ref_a.id)},
                {&patched, &props::findAssertion(pa, ref_a.id)},
                {&reference, &ref_a}, cpu::Processor::OR1200,
                or1200DriverOptions(reference, 60));
        } else {
            // Standalone assertion: "patched" == reference; a generated
            // exploit on the correct design marks a wrong assertion.
            verdict = core::verifyPatch(
                {&reference, &ref_a}, {&reference, &ref_a},
                {&reference, &ref_a}, cpu::Processor::OR1200,
                or1200DriverOptions(reference, 60));
        }
        switch (verdict) {
          case core::PatchVerdict::Pass:
            ++pass;
            break;
          case core::PatchVerdict::BugNotFixed:
            ++not_fixed;
            not_fixed_ids.push_back(ref_a.id);
            break;
          case core::PatchVerdict::WrongAssertion:
            ++wrong;
            wrong_ids.push_back(ref_a.id);
            break;
          case core::PatchVerdict::Inconclusive:
            ++inconclusive;
            inconclusive_ids.push_back(ref_a.id);
            break;
        }
    }

    const std::vector<int> widths{34, 10, 10};
    printRow({"Items", "Paper", "Measured"}, widths);
    printRule(widths);
    printRow({"Total Assertions", "35",
              std::to_string(pass + not_fixed + wrong + inconclusive)},
             widths);
    printRow({"Pass Check", "29", std::to_string(pass)}, widths);
    printRow({"Fail Check (Bugs not fixed)", "2",
              std::to_string(not_fixed)},
             widths);
    printRow({"Fail Check (Wrong assertions)", "4",
              std::to_string(wrong)},
             widths);
    printRow({"Inconclusive (search incomplete)", "-",
              std::to_string(inconclusive)},
             widths);

    std::printf("\nBugs not fixed by their patch: ");
    for (const auto &id : not_fixed_ids)
        std::printf("%s ", id.c_str());
    std::printf("\nAssertions refined away as not-true: ");
    for (const auto &id : wrong_ids)
        std::printf("%s ", id.c_str());
    std::printf("\nPatched searches that did not complete: ");
    for (const auto &id : inconclusive_ids)
        std::printf("%s ", id.c_str());
    std::printf("\n");
    return 0;
}
