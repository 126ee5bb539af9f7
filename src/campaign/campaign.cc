#include "campaign/campaign.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>

#include "bse/recorder.hh"
#include "metrics/metrics.hh"
#include "solver/querylog.hh"
#include "trace/trace.hh"
#include "util/logging.hh"

namespace coppelia::campaign
{

namespace
{

/** Campaign-level live metrics; interned once per process. */
struct CampaignMetrics
{
    metrics::Counter *jobsCompleted = metrics::counter(
        "campaign_jobs_completed", "jobs recorded with status completed");
    metrics::Counter *jobsFailed = metrics::counter(
        "campaign_jobs_failed",
        "jobs recorded with a non-completed status");
    metrics::Histogram *jobUs = metrics::histogram(
        "campaign.job_us",
        {100000, 1000000, 5000000, 15000000, 60000000, 300000000},
        "end-to-end job wall time in microseconds");
};

CampaignMetrics &
campaignMetrics()
{
    static CampaignMetrics m;
    return m;
}

/** Cumulative counter values at the previous /status request, for the
 *  per-scrape rate columns. Touched only under the server's provider
 *  lock (requests are handled sequentially). */
struct RateState
{
    std::uint64_t us = 0;
    std::uint64_t iterations = 0;
    std::uint64_t queries = 0;
    std::uint64_t fuzzExecs = 0;
};

json::Value
buildStatus(const CampaignSpec &spec, Scheduler &scheduler,
            ResultStore &store, std::uint64_t start_us,
            RateState &rates)
{
    const std::uint64_t now_us = metrics::nowUs();
    json::Value doc = json::Value::object();
    doc.set("campaign", json::Value::string(spec.name));
    doc.set("uptime_seconds",
            json::Value::number(
                static_cast<double>(now_us - start_us) / 1e6));

    json::Value jobs = json::Value::object();
    jobs.set("total", json::Value::number(
                          static_cast<std::uint64_t>(spec.jobs.size())));
    jobs.set("done", json::Value::number(
                         static_cast<std::uint64_t>(store.size())));
    jobs.set("pending", json::Value::number(scheduler.pendingTasks()));
    jobs.set("queue_depth",
             json::Value::number(
                 static_cast<std::uint64_t>(scheduler.queuedTasks())));
    doc.set("jobs", std::move(jobs));

    json::Value workers = json::Value::array();
    for (const WorkerSnapshot &w : scheduler.workerSnapshots()) {
        json::Value wj = json::Value::object();
        wj.set("worker", json::Value::number(w.worker));
        wj.set("busy", json::Value::boolean(w.busy));
        if (w.busy) {
            wj.set("task", json::Value::number(w.taskId));
            wj.set("job", json::Value::string(w.label));
            wj.set("seconds_in_job", json::Value::number(w.secondsInJob));
            if (w.phase) {
                wj.set("phase", json::Value::string(w.phase));
                wj.set("iteration", json::Value::number(w.heartbeatA));
                wj.set("frontier", json::Value::number(w.heartbeatB));
            }
            wj.set("progress_age_seconds",
                   json::Value::number(w.progressAgeSeconds));
        }
        workers.push(std::move(wj));
    }
    doc.set("workers", std::move(workers));

    // Per-scrape rates from the cumulative registry counters: delta
    // since the previous /status request on this server.
    const std::uint64_t iters =
        metrics::counter("bse_iterations")->value();
    const std::uint64_t queries =
        metrics::counter("solver_queries")->value();
    const std::uint64_t sat_calls =
        metrics::counter("solver_sat_calls")->value();
    const std::uint64_t unknowns =
        metrics::counter("solver_budget_exhausted")->value();
    const std::uint64_t fuzz_execs =
        metrics::counter("fuzz_execs_total")->value();
    json::Value rate = json::Value::object();
    if (rates.us > 0 && now_us > rates.us) {
        const double dt = static_cast<double>(now_us - rates.us) / 1e6;
        rate.set("bse_iterations_per_sec",
                 json::Value::number(
                     static_cast<double>(iters - rates.iterations) / dt));
        rate.set("smt_queries_per_sec",
                 json::Value::number(
                     static_cast<double>(queries - rates.queries) / dt));
        rate.set("fuzz_execs_per_sec",
                 json::Value::number(
                     static_cast<double>(fuzz_execs - rates.fuzzExecs) /
                     dt));
    }
    rate.set("solver_unknown_ratio",
             json::Value::number(
                 sat_calls > 0 ? static_cast<double>(unknowns) /
                                     static_cast<double>(sat_calls)
                               : 0.0));
    rates.us = now_us;
    rates.iterations = iters;
    rates.queries = queries;
    rates.fuzzExecs = fuzz_execs;
    doc.set("rates", std::move(rate));

    // Fuzzing campaign state, mirroring the fuzz_* registry metrics so
    // operators need not scrape /metrics to see corpus growth.
    json::Value fuzz = json::Value::object();
    fuzz.set("execs", json::Value::number(fuzz_execs));
    fuzz.set("corpus_size",
             json::Value::number(
                 metrics::gauge("fuzz_corpus_size")->value()));
    fuzz.set("coverage_points",
             json::Value::number(
                 metrics::gauge("fuzz_coverage_points")->value()));
    fuzz.set("divergences",
             json::Value::number(
                 metrics::counter("fuzz_divergences")->value()));
    fuzz.set("handoffs",
             json::Value::number(
                 metrics::counter("fuzz_handoffs")->value()));
    doc.set("fuzz", std::move(fuzz));

    // The operator's "what is eating the wall clock": finished jobs by
    // descending wall time.
    std::vector<JobRecord> records = store.sorted();
    std::sort(records.begin(), records.end(),
              [](const JobRecord &a, const JobRecord &b) {
                  return a.result.seconds > b.result.seconds;
              });
    json::Value slowest = json::Value::array();
    for (std::size_t i = 0; i < records.size() && i < 5; ++i) {
        const JobRecord &r = records[i];
        json::Value rj = json::Value::object();
        rj.set("job", json::Value::number(r.jobIndex));
        rj.set("kind",
               json::Value::string(jobKindName(r.spec.kind)));
        rj.set("bug", json::Value::string(cpu::bugName(r.spec.bug)));
        rj.set("seconds", json::Value::number(r.result.seconds));
        rj.set("found", json::Value::boolean(r.result.found));
        slowest.push(std::move(rj));
    }
    doc.set("slowest_jobs", std::move(slowest));

    // Live forensics: the process-wide top-K slowest solver queries with
    // their stat fingerprints, so a wedged campaign names the query that
    // is eating the clock before any artifact is flushed.
    json::Value slowest_queries = json::Value::array();
    for (const smt::querylog::Record &q :
         smt::querylog::globalSlowest()) {
        json::Value qj = json::Value::object();
        qj.set("query", json::Value::number(q.id));
        qj.set("job", json::Value::number(q.job));
        qj.set("iteration", json::Value::number(q.iteration));
        if (q.origin && q.origin[0] != '\0')
            qj.set("origin", json::Value::string(q.origin));
        qj.set("wall_us", json::Value::number(q.wallUs));
        qj.set("result",
               json::Value::string(smt::querylog::resultName(q.result)));
        qj.set("conflicts", json::Value::number(q.conflicts));
        qj.set("decisions", json::Value::number(q.decisions));
        qj.set("assumptions",
               json::Value::number(
                   static_cast<std::uint64_t>(q.assumptions)));
        qj.set("retry", json::Value::number(
                            static_cast<std::uint64_t>(q.retry)));
        slowest_queries.push(std::move(qj));
    }
    doc.set("slowest_queries", std::move(slowest_queries));

    doc.set("metrics", metrics::snapshotJson(metrics::snapshot()));
    return doc;
}

} // namespace

const JobRecord *
CampaignResult::find(JobKind kind, cpu::BugId bug) const
{
    for (const JobRecord &r : records) {
        if (r.spec.kind == kind && r.spec.bug == bug)
            return &r;
    }
    return nullptr;
}

CampaignResult
runCampaign(const CampaignSpec &spec, std::ostream *telemetry,
            monitor::Server *server)
{
    // Trace lifecycle: a spec-level trace file scopes recording to this
    // campaign. A caller that enabled tracing itself (empty traceFile)
    // keeps full control of buffers and export.
    const bool manage_trace = !spec.traceFile.empty();
    if (manage_trace) {
        trace::clear();
        trace::setEnabled(true);
        trace::setThreadName("campaign");
    }
    trace::Span campaign_span("campaign.run", "campaign");

    // Forensics lifecycle: the live slowest-query view is scoped to this
    // campaign, and an artifact directory switches the search recorder
    // on for the run (the query log itself is always-on unless compiled
    // out — it costs one POD copy per solver dispatch).
    smt::querylog::clearGlobalSlowest();
    const bool artifacts = !spec.artifactDir.empty();
    if (artifacts) {
        std::error_code artifact_ec;
        std::filesystem::create_directories(spec.artifactDir, artifact_ec);
        if (artifact_ec)
            fatal("cannot create artifact directory '", spec.artifactDir,
                  "': ", artifact_ec.message());
        bse::recorder::setEnabled(true);
    }

    // Monitor lifecycle mirrors the trace lifecycle: a caller-owned
    // server outlives the run (the CLI keeps serving after completion);
    // a spec-level port scopes the server to this campaign.
    std::unique_ptr<monitor::Server> owned_server;
    if (!server && spec.monitorPort >= 0) {
        monitor::ServerOptions monitor_opts;
        monitor_opts.port = spec.monitorPort;
        owned_server = std::make_unique<monitor::Server>(monitor_opts);
        if (owned_server->start()) {
            server = owned_server.get();
            inform("campaign '", spec.name,
                   "': monitor on http://127.0.0.1:", server->port(),
                   " (/metrics, /status)");
        } else {
            owned_server.reset(); // warned already; run unmonitored
        }
    }

    ResultStore store;
    if (telemetry)
        store.attachTelemetry(*telemetry);

    SchedulerOptions sched_opts;
    sched_opts.workers = spec.workers;
    // Stall warnings fire well before the watchdog deadline (2x limit +
    // 10s): a search that has not beaten its heartbeat for a third of
    // its budget is wedged inside one solver call.
    sched_opts.stallWarnSeconds =
        spec.jobTimeLimitSeconds > 0.0
            ? std::max(5.0, spec.jobTimeLimitSeconds / 3.0)
            : 30.0;
    Scheduler scheduler(sched_opts);

    for (std::size_t i = 0; i < spec.jobs.size(); ++i) {
        const JobSpec &job = spec.jobs[i];
        Task task;
        task.label = std::string(jobKindName(job.kind)) + ":" +
                     cpu::bugName(job.bug);
        // Generous watchdog margin over the engine's own wall-clock
        // limit: the engine self-terminates; the watchdog only reaps
        // jobs stuck outside the solver loop.
        const double limit = job.timeLimitSeconds > 0.0
                                 ? job.timeLimitSeconds
                                 : spec.jobTimeLimitSeconds;
        task.timeoutSeconds = limit > 0.0 ? limit * 2.0 + 10.0 : 0.0;
        task.fn = [&spec, &store, &job, i](const TaskContext &ctx) {
            const std::uint64_t seed =
                deriveJobSeed(spec.seed, static_cast<int>(i), 0);
            smt::querylog::context().job = static_cast<int>(i);
            JobResult result = runJob(spec, job, seed, ctx.cancel);
            smt::querylog::context().job = -1;
            // Drain this worker's forensics buffers: the next job on this
            // thread must start clean.
            smt::querylog::Drained queries = smt::querylog::drainThread();
            bse::recorder::Drained search = bse::recorder::drainThread();
            if (!spec.artifactDir.empty()) {
                const std::filesystem::path dir(spec.artifactDir);
                const std::string stem = "job" + std::to_string(i);
                const std::string qpath =
                    (dir / (stem + "_queries.jsonl")).string();
                const std::string spath =
                    (dir / (stem + "_search.jsonl")).string();
                std::ofstream qout(qpath);
                if (qout)
                    smt::querylog::writeJsonl(qout, queries);
                std::ofstream sout(spath);
                if (sout)
                    bse::recorder::writeJsonl(sout, search);
                result.queriesArtifact = qpath;
                result.searchArtifact = spath;
            }
            result.stats.inc("querylog_records", queries.recorded);
            result.stats.inc("querylog_dropped", queries.dropped);
            result.stats.inc("querylog_wall_us", queries.totalWallUs);
            result.stats.inc(
                "search_events",
                static_cast<std::uint64_t>(search.events.size()));
            result.stats.inc("search_dropped", search.dropped);
            if (result.status == JobStatus::Completed)
                campaignMetrics().jobsCompleted->inc();
            else
                campaignMetrics().jobsFailed->inc();
            campaignMetrics().jobUs->observe(
                static_cast<std::uint64_t>(result.seconds * 1e6));
            JobRecord record;
            record.jobIndex = static_cast<int>(i);
            record.spec = job;
            if (record.spec.assertionId.empty())
                record.spec.assertionId = result.assertionId;
            record.seed = seed;
            record.workerId = ctx.workerId;
            record.result = std::move(result);
            store.add(std::move(record));
            trace::counter("campaign.jobs_completed",
                           static_cast<double>(store.size()));
        };
        scheduler.add(std::move(task));
    }

    if (server) {
        const std::uint64_t start_us = metrics::nowUs();
        auto rates = std::make_shared<RateState>();
        server->setStatusProvider(
            [&spec, &scheduler, &store, start_us, rates] {
                return buildStatus(spec, scheduler, store, start_us,
                                   *rates);
            });
    }

    CampaignResult out;
    out.scheduler = scheduler.runAll();
    if (server) {
        out.monitorPort = server->port();
        // The provider captures this frame's scheduler/store; a
        // caller-owned server must stop reaching into them once we
        // return (it falls back to the bare registry snapshot).
        server->setStatusProvider(nullptr);
    }
    out.records = store.sorted();
    out.stats = store.aggregateStats();
    if (out.records.size() != spec.jobs.size())
        warn("campaign '", spec.name, "': ", out.records.size(),
             " records for ", spec.jobs.size(), " jobs");

    if (artifacts)
        bse::recorder::setEnabled(false);
    campaign_span.close();
    if (manage_trace) {
        trace::setEnabled(false);
        if (trace::writeChromeTraceFile(spec.traceFile))
            inform("campaign '", spec.name, "': wrote trace ",
                   spec.traceFile, " (", trace::eventCount(), " events)");
    }
    return out;
}

CampaignResult
runCampaignToFiles(const CampaignSpec &spec,
                   const std::string &output_dir, monitor::Server *server)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(output_dir, ec);
    if (ec)
        fatal("cannot create output directory '", output_dir, "': ",
              ec.message());

    const fs::path dir(output_dir);
    std::ofstream jsonl(dir / "campaign.jsonl");
    if (!jsonl)
        fatal("cannot open ", (dir / "campaign.jsonl").string());

    // A file-producing campaign gets forensics artifacts by default,
    // co-located with campaign.jsonl so coppelia-report finds them by
    // relative path.
    CampaignSpec effective = spec;
    if (effective.artifactDir.empty())
        effective.artifactDir = (dir / "artifacts").string();

    CampaignResult result = runCampaign(effective, &jsonl, server);

    std::ofstream summary(dir / "summary.txt");
    if (!summary)
        fatal("cannot open ", (dir / "summary.txt").string());
    writeSummary(summary, effective, result.records, result.scheduler);

    // Registry snapshot beside the telemetry: coppelia-report folds it
    // into the cross-check section without a live /metrics endpoint.
    std::ofstream metrics_out(dir / "metrics.json");
    if (metrics_out)
        metrics_out << metrics::snapshotJson(metrics::snapshot()).dump()
                    << "\n";
    return result;
}

} // namespace coppelia::campaign
