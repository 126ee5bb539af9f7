/**
 * @file
 * The campaign orchestrator: expands a CampaignSpec into its job matrix,
 * executes it on the scheduler's worker pool (each job isolated in its
 * own design elaboration and solver), and collects records, aggregate
 * statistics, and the pool's wall time. This is the batch engine behind
 * the `coppelia-campaign` CLI and the Table II/VI benchmark harnesses.
 *
 * Each job runs once, to its own end, and leaves one record. The time
 * limit bounds each search, not the job: an exploit job runs at most
 * four searches (incremental, fresh fallback, and both again with the
 * assertion state pinned the other way), BMC checks the limit at each
 * depth, and a fuzz job runs its loop and then `fuzzHandoffs` hand-offs
 * of up to two quarter-limit searches each. A job whose search ran out
 * of budget is recorded as completed with that outcome: the exploit and
 * BMC searches read no seed, so running one again would replay it.
 */

#ifndef COPPELIA_CAMPAIGN_CAMPAIGN_HH
#define COPPELIA_CAMPAIGN_CAMPAIGN_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "campaign/job.hh"
#include "campaign/result_store.hh"
#include "campaign/scheduler.hh"
#include "campaign/spec.hh"
#include "campaign/telemetry.hh"
#include "monitor/monitor.hh"

namespace coppelia::campaign
{

/** Everything a finished campaign produced. */
struct CampaignResult
{
    std::vector<JobRecord> records; ///< sorted by job index
    StatGroup stats;                ///< merged solver/search counters
    SchedulerReport scheduler;
    /** Port the live monitor served on; -1 when no monitor ran. */
    int monitorPort = -1;

    /** Record for a (kind, bug) cell; nullptr when absent. */
    const JobRecord *find(JobKind kind, cpu::BugId bug) const;
};

/**
 * Run the campaign. When @p telemetry is non-null every finished job is
 * streamed to it as one JSONL line (in completion order) before the call
 * returns the sorted records.
 *
 * Live monitoring: when @p server is non-null (a started
 * monitor::Server the caller owns — the CLI does this so it can print
 * the bound port and keep serving after the run), the campaign installs
 * its /status provider on it for the duration of the run. Otherwise,
 * when spec.monitorPort >= 0, the campaign starts its own server on
 * that port and stops it on return.
 */
CampaignResult runCampaign(const CampaignSpec &spec,
                           std::ostream *telemetry = nullptr,
                           monitor::Server *server = nullptr);

/**
 * Run the campaign and write `campaign.jsonl` and `summary.txt` under
 * @p output_dir (created if missing). @return the campaign result.
 */
CampaignResult runCampaignToFiles(const CampaignSpec &spec,
                                  const std::string &output_dir,
                                  monitor::Server *server = nullptr);

} // namespace coppelia::campaign

#endif // COPPELIA_CAMPAIGN_CAMPAIGN_HH
