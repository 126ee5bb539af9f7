/**
 * @file
 * `coppelia-campaign` — the batch exploit-generation driver. Loads a
 * declarative campaign spec (or builds a matrix from flags), executes
 * the (processor × bug × kind) job matrix on the work-stealing worker
 * pool, each job once, and writes `campaign.jsonl` (one telemetry record
 * per job) plus `summary.txt` (the Table II/VI-layout digest) to the
 * output directory.
 *
 *   coppelia-campaign --spec table2.campaign --workers 4 --out results/
 *   coppelia-campaign --matrix or1200 --baselines --time-limit 60
 *   coppelia-campaign --spec table2.campaign --list
 */

#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.hh"
#include "monitor/monitor.hh"
#include "trace/fold.hh"
#include "util/logging.hh"

using namespace coppelia;

namespace
{

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "\n"
        "Campaign definition (one of):\n"
        "  --spec FILE        load a campaign spec file\n"
        "  --matrix PROC      all in-scope bugs of PROC (or1200, mor1kx,\n"
        "                     ri5cy); repeatable\n"
        "  --job PROC:BUG[:KIND]  a single job (e.g. --job ri5cy:b33 or\n"
        "                     --job or1200:b04:fuzz); repeatable\n"
        "\n"
        "Overrides:\n"
        "  --baselines        also run the bmc-ifv and bmc-ebmc matrix\n"
        "                     for every --matrix processor\n"
        "  --fuzz             also run the fuzz matrix for every\n"
        "                     --matrix processor\n"
        "  --fuzz-execs N     fuzzer executions per fuzz job\n"
        "  --fuzz-stream N    maximum fuzzed stream length\n"
        "  --fuzz-handoffs N  concolic hand-off attempts per fuzz job\n"
        "  --workers N        worker threads (default: spec / all cores)\n"
        "  --seed S           base RNG seed (read by fuzz jobs only)\n"
        "  --time-limit SEC   per-job wall-clock budget\n"
        "  --no-incremental   fresh SAT instance per solver query (the\n"
        "                     incremental-backend ablation)\n"
        "  --conflict-budget N  per-query SAT conflict cap (default -1:\n"
        "                     unlimited); a query that hits it is retried\n"
        "                     once at 4N, then marks its job incomplete\n"
        "  --no-minimize      skip learnt-clause minimization in conflict\n"
        "                     analysis\n"
        "  --out DIR          output directory (default: .)\n"
        "  --artifacts DIR    per-job forensics artifacts (solver query\n"
        "                     logs, search-recorder streams; default:\n"
        "                     OUT/artifacts); fold into an HTML post-\n"
        "                     mortem with coppelia-report\n"
        "  --trace FILE       record a Chrome trace-event timeline of the\n"
        "                     run (open in Perfetto; fold with\n"
        "                     coppelia-trace report); prints the per-phase\n"
        "                     breakdown after the summary\n"
        "  --monitor PORT     serve live /metrics (Prometheus) and\n"
        "                     /status (JSON) on 127.0.0.1:PORT while the\n"
        "                     campaign runs (0 = ephemeral port; watch\n"
        "                     with coppelia-top --port PORT)\n"
        "  --monitor-linger SEC  keep the monitor serving SEC seconds\n"
        "                     after the run completes (for scrapers)\n"
        "\n"
        "Modes:\n"
        "  --list             print the expanded job matrix and exit\n"
        "  --verbose          inform-level logging\n"
        "  --help             this text\n",
        argv0);
}

[[noreturn]] void
badArg(const char *argv0, const std::string &why)
{
    std::fprintf(stderr, "%s: %s\n\n", argv0, why.c_str());
    usage(argv0);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    campaign::CampaignSpec spec;
    bool have_spec = false;
    bool baselines = false;
    bool fuzz_matrix = false;
    bool list_only = false;
    std::string out_dir = ".";
    std::vector<cpu::Processor> matrix_procs;

    // Overrides are applied after the spec file loads, whatever the flag
    // order; -1/empty means "not set on the command line".
    int workers = -1;
    double time_limit = -1.0;
    long long seed = -1;
    long long conflict_budget = -2; // -1 means "explicitly unlimited"
    bool no_incremental = false;
    bool no_minimize = false;
    int fuzz_execs = -1, fuzz_stream = -1, fuzz_handoffs = -1;
    std::string trace_file;
    std::string artifact_dir;
    int monitor_port = -2; // -1 = spec default off; >= 0 = serve
    double monitor_linger = 0.0;

    auto value = [&](int &i, const char *flag) -> std::string {
        if (i + 1 >= argc)
            badArg(argv[0], std::string("missing value for ") + flag);
        return argv[++i];
    };
    // A value must parse whole: std::stoll alone would read "2e4" as 2.
    auto numeric = [&](int &i, const char *flag, auto parse) {
        const std::string v = value(i, flag);
        std::size_t used = 0;
        try {
            const auto n = parse(v, &used);
            if (used == v.size())
                return n;
        } catch (...) {
        }
        badArg(argv[0], std::string("bad value '") + v + "' for " + flag);
    };
    auto to_int = [](const std::string &s, std::size_t *used) {
        return std::stoi(s, used);
    };
    auto to_ll = [](const std::string &s, std::size_t *used) {
        return std::stoll(s, used);
    };
    auto to_double = [](const std::string &s, std::size_t *used) {
        return std::stod(s, used);
    };

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (arg == "--spec") {
            spec = campaign::loadSpecFile(value(i, "--spec"));
            have_spec = true;
        } else if (arg == "--matrix") {
            cpu::Processor proc;
            const std::string name = value(i, "--matrix");
            if (!campaign::parseProcessorName(name, &proc))
                badArg(argv[0], "unknown processor '" + name + "'");
            matrix_procs.push_back(proc);
        } else if (arg == "--job") {
            const std::string pair = value(i, "--job");
            const std::size_t colon = pair.find(':');
            if (colon == std::string::npos)
                badArg(argv[0],
                       "--job wants PROC:BUG[:KIND], got '" + pair + "'");
            campaign::JobSpec job;
            if (!campaign::parseProcessorName(pair.substr(0, colon),
                                              &job.processor))
                badArg(argv[0], "unknown processor in '" + pair + "'");
            std::string bug_word = pair.substr(colon + 1);
            const std::size_t colon2 = bug_word.find(':');
            if (colon2 != std::string::npos) {
                if (!campaign::parseJobKindName(
                        bug_word.substr(colon2 + 1), &job.kind))
                    badArg(argv[0], "unknown job kind in '" + pair + "'");
                bug_word = bug_word.substr(0, colon2);
            }
            bool found = false;
            for (const cpu::BugInfo &info : cpu::bugRegistry()) {
                if (info.name == bug_word) {
                    job.bug = info.id;
                    found = true;
                    break;
                }
            }
            if (!found)
                badArg(argv[0], "unknown bug in '" + pair + "'");
            spec.jobs.push_back(job);
            have_spec = true;
        } else if (arg == "--baselines") {
            baselines = true;
        } else if (arg == "--fuzz") {
            fuzz_matrix = true;
        } else if (arg == "--fuzz-execs") {
            fuzz_execs = numeric(i, "--fuzz-execs", to_int);
        } else if (arg == "--fuzz-stream") {
            fuzz_stream = numeric(i, "--fuzz-stream", to_int);
        } else if (arg == "--fuzz-handoffs") {
            fuzz_handoffs = numeric(i, "--fuzz-handoffs", to_int);
        } else if (arg == "--workers") {
            workers = numeric(i, "--workers", to_int);
        } else if (arg == "--seed") {
            seed = numeric(i, "--seed", to_ll);
        } else if (arg == "--time-limit") {
            time_limit = numeric(i, "--time-limit", to_double);
        } else if (arg == "--no-incremental") {
            no_incremental = true;
        } else if (arg == "--no-minimize") {
            no_minimize = true;
        } else if (arg == "--conflict-budget") {
            conflict_budget = numeric(i, "--conflict-budget", to_ll);
            if (conflict_budget < -1)
                badArg(argv[0], "--conflict-budget wants a count >= -1");
        } else if (arg == "--out") {
            out_dir = value(i, "--out");
        } else if (arg == "--artifacts") {
            artifact_dir = value(i, "--artifacts");
        } else if (arg == "--trace") {
            trace_file = value(i, "--trace");
        } else if (arg == "--monitor") {
            monitor_port = numeric(i, "--monitor", to_int);
            if (monitor_port < 0 || monitor_port > 65535)
                badArg(argv[0], "--monitor wants a port in [0, 65535]");
        } else if (arg == "--monitor-linger") {
            monitor_linger = numeric(i, "--monitor-linger", to_double);
        } else if (arg == "--list") {
            list_only = true;
        } else if (arg == "--verbose") {
            setLogLevel(LogLevel::Inform);
        } else {
            badArg(argv[0], "unknown option '" + arg + "'");
        }
    }

    for (cpu::Processor proc : matrix_procs) {
        campaign::addProcessorMatrix(spec, proc);
        if (baselines) {
            campaign::addProcessorMatrix(spec, proc,
                                         campaign::JobKind::BmcIfv);
            campaign::addProcessorMatrix(spec, proc,
                                         campaign::JobKind::BmcEbmc);
        }
        if (fuzz_matrix)
            campaign::addProcessorMatrix(spec, proc,
                                         campaign::JobKind::Fuzz);
        have_spec = true;
    }
    if (!have_spec)
        badArg(argv[0], "no campaign: give --spec, --matrix, or --job");
    if (spec.jobs.empty())
        badArg(argv[0], "campaign spec expands to zero jobs");

    if (workers >= 0)
        spec.workers = workers;
    if (time_limit >= 0.0)
        spec.jobTimeLimitSeconds = time_limit;
    if (seed >= 0)
        spec.seed = static_cast<std::uint64_t>(seed);
    if (no_incremental)
        spec.incrementalSolver = false;
    if (no_minimize)
        spec.solverMinimize = false;
    if (conflict_budget >= -1)
        spec.solverConflictBudget = conflict_budget;
    if (fuzz_execs >= 0)
        spec.fuzzExecs = fuzz_execs;
    if (fuzz_stream >= 0)
        spec.fuzzMaxStream = fuzz_stream;
    if (fuzz_handoffs >= 0)
        spec.fuzzHandoffs = fuzz_handoffs;
    if (!trace_file.empty())
        spec.traceFile = trace_file;
    if (!artifact_dir.empty())
        spec.artifactDir = artifact_dir;
    if (monitor_port >= -1)
        spec.monitorPort = monitor_port;

    if (list_only) {
        std::printf("%s", campaign::describeJobs(spec).c_str());
        return 0;
    }

    // The CLI owns the server (rather than letting runCampaign start
    // one) so the bound port prints before the first job runs and the
    // endpoints can linger for scrapers after the run completes.
    monitor::Server server({.port = spec.monitorPort >= 0
                                        ? spec.monitorPort
                                        : 0});
    monitor::Server *server_ptr = nullptr;
    if (spec.monitorPort >= 0) {
        if (!server.start())
            return 1;
        server_ptr = &server;
        std::printf("monitor: http://127.0.0.1:%d/metrics and /status\n",
                    server.port());
        std::fflush(stdout);
    }

    campaign::CampaignResult result =
        campaign::runCampaignToFiles(spec, out_dir, server_ptr);

    // Mirror the summary on stdout; the files carry the durable copy.
    std::ostringstream os;
    campaign::writeSummary(os, spec, result.records, result.scheduler);
    if (!spec.traceFile.empty()) {
        // Fold the just-recorded buffers rather than re-parsing the file.
        os << "\n";
        trace::writeFoldReport(os, trace::foldLive());
    }
    std::printf("%s", os.str().c_str());
    std::printf("\nwrote %s/campaign.jsonl and %s/summary.txt\n",
                out_dir.c_str(), out_dir.c_str());

    if (server_ptr && monitor_linger > 0.0) {
        // Final registry totals stay scrapeable (the /status provider
        // already fell back to the bare snapshot).
        std::printf("monitor: lingering %.0fs on port %d\n",
                    monitor_linger, server.port());
        std::fflush(stdout);
        std::this_thread::sleep_for(
            std::chrono::duration<double>(monitor_linger));
    }
    return 0;
}
