/**
 * @file
 * Declarative campaign specifications. A campaign is a *matrix* of
 * independent exploit-generation (and baseline model-checking) jobs — one
 * per (processor × bug × assertion) triple, the shape of the paper's
 * Tables II and VI — plus the execution policy: worker count, per-job
 * time/iteration budgets, and the base seed from which every job derives
 * its own deterministic RNG stream (only fuzz jobs read it).
 *
 * Specs can be built programmatically (the benchmark harnesses do) or
 * loaded from a small line-oriented text format (the CLI does):
 *
 *     # table2.campaign — every in-scope OR1200 bug, plus both baselines
 *     name        table2
 *     workers     4
 *     seed        42
 *     time-limit  90
 *     bound       6
 *     matrix      or1200
 *     matrix      or1200 bmc-ifv
 *     matrix      or1200 bmc-ebmc
 *     job         ri5cy  b33
 *
 * `matrix PROC [KIND]` expands to one job per in-scope bug of the
 * processor; `job PROC BUG [KIND]` adds a single job. Processors:
 * or1200, mor1kx, ri5cy. Kinds: exploit (default), bmc-ifv, bmc-ebmc,
 * fuzz. Fuzz jobs honor `fuzz-execs N`, `fuzz-stream N` (max stream
 * length), and `fuzz-handoffs N` (concolic hand-off attempts).
 * `trace FILE` records the run as a Chrome trace-event timeline.
 * `monitor PORT` serves live /metrics and /status over HTTP on
 * 127.0.0.1:PORT for the duration of the run (0 = ephemeral port).
 * `artifacts DIR` writes per-job forensics artifacts (queries.jsonl,
 * search.jsonl) under DIR; `coppelia-campaign -o` defaults it to
 * `<output>/artifacts`.
 */

#ifndef COPPELIA_CAMPAIGN_SPEC_HH
#define COPPELIA_CAMPAIGN_SPEC_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "cpu/bugs.hh"
#include "solver/solver.hh"

namespace coppelia::campaign
{

/** What a job runs: the Coppelia pipeline, a BMC baseline, or the
 *  coverage-guided fuzzer. */
enum class JobKind
{
    Exploit,  ///< full Coppelia flow: trigger + payload + replay
    BmcIfv,   ///< IFV-like baseline (unconstrained initial state)
    BmcEbmc,  ///< EBMC-like baseline (bounded, from reset)
    Fuzz,     ///< coverage-guided fuzzing with the divergence oracle and
              ///< concolic hand-off to the BSEE
};

const char *jobKindName(JobKind k);

/** One cell of the campaign matrix. */
struct JobSpec
{
    JobKind kind = JobKind::Exploit;
    cpu::Processor processor = cpu::Processor::OR1200;
    cpu::BugId bug = cpu::BugId::b01;
    /** Assertion id to target; empty = the bug's associated assertion. */
    std::string assertionId;
    /** Per-job wall-clock budget; 0 = inherit the campaign default. */
    double timeLimitSeconds = 0.0;
};

/** The campaign: the job matrix plus the execution policy. */
struct CampaignSpec
{
    std::string name = "campaign";
    /** Worker threads; 0 = hardware concurrency. */
    int workers = 0;
    /** Base seed; job i derives seed splitmix(seed, i, 0). Only fuzz
     *  jobs read it: exploit and BMC searches give the same result at
     *  every seed. */
    std::uint64_t seed = 0x434f5050454c4941ull;
    /** Default per-job wall-clock budget in seconds (0 = unlimited). */
    double jobTimeLimitSeconds = 90.0;
    /** Engine iteration budgets (bse::Options::{bound,maxFeedbackRounds}). */
    int bound = 6;
    int maxFeedbackRounds = 24;
    /** BMC baseline unrolling bound (EbmcLike). */
    int bmcMaxBound = 4;
    /** Incremental SAT backend for every job's solver; `incremental off`
     *  (or the CLI's `--no-incremental`) is the fresh-instance ablation.
     *  This and the two solver fields after it take their defaults
     *  from smt::SolverOptions. */
    bool incrementalSolver = smt::SolverOptions{}.incremental;
    /** Per-query SAT conflict budget (-1 = unlimited; `conflict-budget
     *  N` / `--conflict-budget`, N >= -1). */
    std::int64_t solverConflictBudget = smt::SolverOptions{}.conflictBudget;
    /** Learnt-clause minimization (`minimize on|off` /
     *  `--no-minimize`). */
    bool solverMinimize = smt::SolverOptions{}.minimize;
    /** Deleted settings; see smt::RemovedOption. */
    smt::RemovedOption solverRewrite, solverPreprocess, solverAdaptive;
    smt::RemovedOption solverThreads, solverPortfolio, solverCubeBudget;
    smt::RemovedOption simBackend;
    /** Fuzz-kind knobs (`fuzz-execs`, `fuzz-stream`, `fuzz-handoffs`):
     *  stream executions per job, max stream length, and how many
     *  highest-proximity corpus states get a concolic BSEE hand-off. */
    int fuzzExecs = 512;
    int fuzzMaxStream = 24;
    int fuzzHandoffs = 2;
    /** Coppelia driver toggles. */
    bool addPayload = true;
    bool validateByReplay = true;
    /** Chrome trace-event output path (`trace FILE` / `--trace`); empty
     *  disables tracing. The file loads in Perfetto / chrome://tracing
     *  and folds with `coppelia-trace report`. */
    std::string traceFile;
    /** Live monitor HTTP port (`monitor PORT` / `--monitor`): serve
     *  /metrics (Prometheus) and /status (JSON) on 127.0.0.1 while the
     *  campaign runs. 0 binds an ephemeral port; -1 (default) disables
     *  the monitor. */
    int monitorPort = -1;
    /** Per-job forensics artifact directory (`artifacts DIR` /
     *  `--artifacts`): each finished job flushes its solver query log to
     *  `jobN_queries.jsonl` and its search-recorder event stream to
     *  `jobN_search.jsonl` here, and the campaign.jsonl record points at
     *  both. Empty (default) disables artifact files; the query log and
     *  the live /status `slowest_queries` view still run.
     *  `runCampaignToFiles` defaults it to `<output_dir>/artifacts`. */
    std::string artifactDir;

    std::vector<JobSpec> jobs;
};

/** Append one job per in-scope bug of @p processor. */
void addProcessorMatrix(CampaignSpec &spec, cpu::Processor processor,
                        JobKind kind = JobKind::Exploit);

/** Parse the text spec format; fatal() on malformed input. */
CampaignSpec parseSpec(std::istream &in, const std::string &origin = "spec");

/** Load a spec file; fatal() when unreadable or malformed. */
CampaignSpec loadSpecFile(const std::string &path);

/** Render the expanded job list, one line per job (for --list). */
std::string describeJobs(const CampaignSpec &spec);

/** Parse helpers shared with the CLI. */
bool parseProcessorName(const std::string &name, cpu::Processor *out);
bool parseJobKindName(const std::string &name, JobKind *out);

} // namespace coppelia::campaign

#endif // COPPELIA_CAMPAIGN_SPEC_HH
