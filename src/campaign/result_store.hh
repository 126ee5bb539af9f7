/**
 * @file
 * Thread-safe collection point for finished campaign jobs. Workers push
 * one record per job; the store appends it under a lock,
 * merges the job's solver statistics into the campaign aggregate, and —
 * when a telemetry sink is attached — streams the record out as one JSONL
 * line immediately, so a killed campaign still leaves a complete log of
 * everything that finished.
 */

#ifndef COPPELIA_CAMPAIGN_RESULT_STORE_HH
#define COPPELIA_CAMPAIGN_RESULT_STORE_HH

#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "campaign/job.hh"
#include "campaign/spec.hh"
#include "util/stats.hh"

namespace coppelia::campaign
{

/** One finished job, as recorded by the campaign. */
struct JobRecord
{
    int jobIndex = 0;
    JobSpec spec;
    std::uint64_t seed = 0; ///< derived seed (only fuzz jobs read it)
    int workerId = 0;
    JobResult result;
};

class ResultStore
{
  public:
    /** Stream each added record to @p out as JSONL (caller keeps the
     *  stream alive for the store's lifetime). */
    void attachTelemetry(std::ostream &out);

    /** Record a finished job (thread-safe). */
    void add(JobRecord record);

    /** All records, sorted by job index (call after the run drains). */
    std::vector<JobRecord> sorted() const;

    /** Sum of every job's solver/search statistics. */
    StatGroup aggregateStats() const;

    std::size_t size() const;

  private:
    mutable std::mutex mu_;
    std::vector<JobRecord> records_;
    StatGroup aggregate_;
    std::ostream *telemetry_ = nullptr;
};

} // namespace coppelia::campaign

#endif // COPPELIA_CAMPAIGN_RESULT_STORE_HH
