/**
 * @file
 * Regenerates Table VI: the four new bugs found by applying translated
 * assertion sets to new platforms — b32 on the Mor1kx-Espresso (the R0
 * bug persisting into the next OpenRISC generation) and b33/b34/b35 on
 * the PULPino-RI5CY — with trigger lengths and replayability.
 *
 * The four runs execute in parallel as one campaign
 * (COPPELIA_CAMPAIGN_WORKERS overrides the worker count).
 */

#include "bench_common.hh"

#include "campaign/campaign.hh"
#include "cpu/bugs.hh"

using namespace coppelia;
using namespace coppelia::bench;

int
main()
{
    std::printf("Table VI: new security-critical bugs on Mor1kx-Espresso "
                "and PULPino-RI5CY\n\n");
    const std::vector<int> widths{5, 18, 44, 11, 11, 11};
    printRow({"No.", "Processor", "Security property", "Instr(ppr)",
              "Instr(meas)", "Replayable"},
             widths);
    printRule(widths);

    campaign::CampaignSpec spec;
    spec.name = "table6";
    spec.workers = campaignWorkers();
    spec.jobTimeLimitSeconds = 90;
    spec.bound = 6;
    spec.maxFeedbackRounds = 24;
    for (const cpu::BugInfo &bug : cpu::bugRegistry()) {
        if (bug.source != "new")
            continue;
        campaign::JobSpec job;
        job.processor = bug.processor;
        job.bug = bug.id;
        spec.jobs.push_back(job);
    }
    campaign::CampaignResult result = campaign::runCampaign(spec);

    for (const cpu::BugInfo &bug : cpu::bugRegistry()) {
        if (bug.source != "new")
            continue;

        std::string instr_meas = "-", rep = "-";
        const campaign::JobRecord *rec =
            result.find(campaign::JobKind::Exploit, bug.id);
        if (rec && rec->result.found) {
            instr_meas = std::to_string(rec->result.triggerInstructions);
            rep = yn(rec->result.replayable);
        }
        printRow({bug.name, processorName(bug.processor),
                  bug.description.substr(0, 44),
                  std::to_string(bug.paperInstrsCoppelia), instr_meas,
                  rep},
                 widths);
    }

    std::printf("\nTranslated assertion sets (§III-B): 30 of the 35 "
                "OR1200 assertions apply to the\nMor1kx; 26 were "
                "translated to the RI5CY after checking the RISC-V "
                "specification.\n");
    {
        rtl::Design m = cpu::or1k::buildMor1kx();
        rtl::Design r = cpu::riscv::buildRi5cy();
        std::printf("  Mor1kx assertions: %zu   RI5CY assertions: %zu\n",
                    cpu::or1k::mor1kxAssertions(m).size(),
                    cpu::riscv::ri5cyAssertions(r).size());
    }
    std::printf("\nOrchestration: %d workers, %.1fs wall, %zu jobs\n",
                result.scheduler.workers, result.scheduler.wallSeconds,
                result.records.size());
    return 0;
}
