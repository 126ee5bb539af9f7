/**
 * @file
 * Execution of one campaign job. A job is fully self-contained: the
 * runner elaborates its own `rtl::Design` for the job's (processor, bug)
 * pair and the engine builds its own `TermManager`, so concurrent jobs
 * share no solver or design state — the paper's per-assertion runs are
 * embarrassingly parallel once that isolation holds.
 *
 * Three kinds mirror the Table II columns — the Coppelia end-to-end flow
 * and the two model-checking baselines (IFV-like and EBMC-like) — and a
 * fourth runs the coverage-guided fuzzer with the ISS-vs-RTL divergence
 * oracle, handing its best corpus states to the BSEE concolically.
 */

#ifndef COPPELIA_CAMPAIGN_JOB_HH
#define COPPELIA_CAMPAIGN_JOB_HH

#include <cstdint>
#include <string>
#include <vector>

#include "bse/engine.hh"
#include "campaign/spec.hh"
#include "util/stats.hh"

namespace coppelia::campaign
{

/** How a job ran. What it found is in the outcome and found fields: a
 *  search that ran out of budget still completed. */
enum class JobStatus
{
    Completed,   ///< ran to its own conclusion (found or exhausted)
    NoAssertion, ///< the bug has no assertion on this core; nothing to run
};

const char *jobStatusName(JobStatus s);

/** The measured outcome of one job. */
struct JobResult
{
    JobStatus status = JobStatus::Completed;
    /** Assertion actually targeted (resolved from the bug when the spec
     *  left it empty). */
    std::string assertionId;

    // Exploit-kind fields.
    bse::Outcome outcome = bse::Outcome::NoViolation;
    bool found = false;
    bool replayable = false;
    int triggerInstructions = 0;
    int iterations = 0;

    // Baseline-kind fields.
    int bmcDepth = 0;
    bool bmcReplayableFromReset = false;

    // Fuzz-kind fields.
    int fuzzExecs = 0;
    std::uint64_t fuzzInstructions = 0;
    int fuzzCorpusSize = 0;
    std::uint64_t fuzzCoveragePoints = 0;
    std::uint64_t fuzzCoverageTotal = 0;
    int fuzzDivergences = 0;
    /** Concolic hand-off attempts that produced a replayable trigger. */
    int fuzzHandoffs = 0;
    /** Minimized replayable instruction streams, one per divergence. */
    std::vector<std::vector<std::uint32_t>> fuzzStreams;

    /** A solver query stayed Unknown (budget-exhausted): a negative result
     *  means the search was incomplete, not that no violation exists. */
    bool solverIncomplete = false;

    /** Trace events this job emitted on its worker (0 when tracing is
     *  disabled); ties each JSONL record to its timeline slice. */
    std::uint64_t traceEvents = 0;

    /** Forensics artifact paths, as written (empty when the campaign ran
     *  without an artifact directory). The campaign layer fills these
     *  after the job's per-thread query-log / search-recorder buffers
     *  are drained and flushed. */
    std::string queriesArtifact;
    std::string searchArtifact;

    double seconds = 0.0;
    StatGroup stats;
};

/**
 * Run one job to its end. Only fuzz jobs read @p seed (it drives the
 * fuzzer's mutations); exploit and BMC jobs give the same result at
 * every seed. The same (spec, job, seed) triple reproduces the same
 * result. The job's time limit bounds each search it runs, not the job.
 */
JobResult runJob(const CampaignSpec &spec, const JobSpec &job,
                 std::uint64_t seed);

/**
 * The seed for job @p index, derived from the campaign base seed with
 * splitmix64 so jobs get decorrelated streams. The campaign passes
 * @p attempt 0; only fuzz jobs read the seed.
 */
std::uint64_t deriveJobSeed(std::uint64_t base, int index, int attempt);

} // namespace coppelia::campaign

#endif // COPPELIA_CAMPAIGN_JOB_HH
