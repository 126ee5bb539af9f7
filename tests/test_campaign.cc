/**
 * @file
 * Campaign orchestrator tests: the generic scheduler (work distribution,
 * stealing, watchdog timeout), spec parsing and matrix expansion, the
 * JSON utility, JSONL telemetry round-tripping, and — with real
 * exploit-generation jobs — parallel-vs-serial result parity, seed-for-
 * seed reproducibility, seed independence of the exploit search, and
 * one run per job.
 *
 * The worker count comes from COPPELIA_CAMPAIGN_WORKERS when set (the
 * ctest entry pins it to 4), defaulting to 4.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>

#include "bmc/bmc.hh"
#include "bse/engine.hh"
#include "campaign/campaign.hh"
#include "campaign/scheduler.hh"
#include "campaign/spec.hh"
#include "core/coppelia.hh"
#include "fuzz/fuzzer.hh"
#include "metrics/metrics.hh"
#include "solver/solver.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace coppelia
{
namespace
{

int
testWorkers()
{
    const char *env = std::getenv("COPPELIA_CAMPAIGN_WORKERS");
    const int n = env ? std::atoi(env) : 0;
    return n > 0 ? n : 4;
}

// --- Generic scheduler -------------------------------------------------

TEST(Scheduler, RunsEveryTaskAcrossWorkers)
{
    const int n_tasks = 40;
    campaign::SchedulerOptions opts;
    opts.workers = testWorkers();
    campaign::Scheduler sched(opts);

    std::vector<std::atomic<int>> results(n_tasks);
    std::vector<std::atomic<int>> runs(n_tasks);
    std::set<int> worker_ids;
    std::mutex mu;
    for (int i = 0; i < n_tasks; ++i) {
        campaign::Task t;
        t.fn = [&, i](const campaign::TaskContext &ctx) {
            // Uneven task sizes so stealing has something to balance.
            std::this_thread::sleep_for(
                std::chrono::milliseconds(i % 7));
            results[static_cast<std::size_t>(i)] = i * i;
            ++runs[static_cast<std::size_t>(i)];
            std::lock_guard<std::mutex> lock(mu);
            worker_ids.insert(ctx.workerId);
        };
        sched.add(std::move(t));
    }
    campaign::SchedulerReport report = sched.runAll();

    EXPECT_EQ(report.tasksSubmitted, n_tasks);
    EXPECT_EQ(report.workers, testWorkers());
    EXPECT_EQ(report.timeouts, 0);
    EXPECT_EQ(sched.pendingTasks(), 0);
    for (int i = 0; i < n_tasks; ++i) {
        EXPECT_EQ(results[static_cast<std::size_t>(i)].load(), i * i);
        EXPECT_EQ(runs[static_cast<std::size_t>(i)].load(), 1) << i;
    }
    // With 40 uneven tasks on >=2 workers, more than one worker ran.
    if (testWorkers() > 1) {
        EXPECT_GT(worker_ids.size(), 1u);
    }
}

TEST(Scheduler, WatchdogCancelsPastDeadline)
{
    campaign::SchedulerOptions opts;
    opts.workers = 2;
    opts.watchdogPeriodSeconds = 0.005;
    campaign::Scheduler sched(opts);

    std::atomic<bool> long_job_observed_cancel{false};
    campaign::Task slow;
    slow.timeoutSeconds = 0.05;
    slow.fn = [&](const campaign::TaskContext &ctx) {
        // Cooperative long job: spins until the watchdog cancels it
        // (bounded by a far-away hard stop so a broken watchdog fails
        // the test instead of hanging it).
        const auto hard_stop = std::chrono::steady_clock::now() +
                               std::chrono::seconds(10);
        while (!ctx.cancelled() &&
               std::chrono::steady_clock::now() < hard_stop)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        long_job_observed_cancel = ctx.cancelled();
    };
    sched.add(std::move(slow));

    std::atomic<int> quick_runs{0};
    campaign::Task quick;
    quick.timeoutSeconds = 30.0;
    quick.fn = [&](const campaign::TaskContext &) { ++quick_runs; };
    sched.add(std::move(quick));

    campaign::SchedulerReport report = sched.runAll();
    EXPECT_TRUE(long_job_observed_cancel.load());
    EXPECT_EQ(report.timeouts, 1);
    EXPECT_EQ(quick_runs.load(), 1);
}

// --- JSON utility ------------------------------------------------------

TEST(Json, DumpAndParseRoundTrip)
{
    json::Value obj = json::Value::object();
    obj.set("name", json::Value::string("b30 \"quoted\"\n"));
    obj.set("count", json::Value::number(42));
    obj.set("ratio", json::Value::number(0.5));
    obj.set("ok", json::Value::boolean(true));
    obj.set("missing", json::Value::null());
    json::Value arr = json::Value::array();
    arr.push(json::Value::number(1));
    arr.push(json::Value::string("two"));
    obj.set("list", arr);

    std::string err;
    json::Value back = json::parse(obj.dump(), &err);
    ASSERT_TRUE(err.empty()) << err;
    ASSERT_TRUE(back.isObject());
    EXPECT_EQ(back.find("name")->asString(), "b30 \"quoted\"\n");
    EXPECT_EQ(back.find("count")->asInt(), 42);
    EXPECT_DOUBLE_EQ(back.find("ratio")->asNumber(), 0.5);
    EXPECT_TRUE(back.find("ok")->asBool());
    EXPECT_TRUE(back.find("missing")->isNull());
    ASSERT_EQ(back.find("list")->items().size(), 2u);
    EXPECT_EQ(back.find("list")->items()[1].asString(), "two");
}

TEST(Json, ParseRejectsMalformedInput)
{
    for (const char *bad :
         {"{", "[1,", "{\"a\":}", "tru", "{\"a\":1} x", "\"unterminated"}) {
        std::string err;
        json::Value v = json::parse(bad, &err);
        EXPECT_TRUE(v.isNull()) << bad;
        EXPECT_FALSE(err.empty()) << bad;
    }
}

// --- Spec parsing ------------------------------------------------------

TEST(CampaignSpec, ParsesDirectivesAndExpandsMatrix)
{
    std::istringstream in(R"(
# a comment
name       t2
workers    3
seed       99
time-limit 45
bound      5
matrix     or1200
matrix     or1200 bmc-ifv
job        ri5cy b33
job        mor1kx b32 bmc-ebmc
)");
    campaign::CampaignSpec spec = campaign::parseSpec(in);
    EXPECT_EQ(spec.name, "t2");
    EXPECT_EQ(spec.workers, 3);
    EXPECT_EQ(spec.seed, 99u);
    EXPECT_DOUBLE_EQ(spec.jobTimeLimitSeconds, 45.0);
    EXPECT_EQ(spec.bound, 5);

    const std::size_t in_scope =
        cpu::bugsFor(cpu::Processor::OR1200, false).size();
    ASSERT_EQ(spec.jobs.size(), 2 * in_scope + 2);
    EXPECT_EQ(spec.jobs[0].kind, campaign::JobKind::Exploit);
    EXPECT_EQ(spec.jobs[in_scope].kind, campaign::JobKind::BmcIfv);
    const campaign::JobSpec &ri5cy = spec.jobs[2 * in_scope];
    EXPECT_EQ(ri5cy.processor, cpu::Processor::PulpinoRi5cy);
    EXPECT_EQ(ri5cy.bug, cpu::BugId::b33);
    const campaign::JobSpec &mor1kx = spec.jobs[2 * in_scope + 1];
    EXPECT_EQ(mor1kx.kind, campaign::JobKind::BmcEbmc);
    EXPECT_EQ(mor1kx.bug, cpu::BugId::b32);

    EXPECT_FALSE(campaign::describeJobs(spec).empty());
}

TEST(CampaignSpec, OnOffDirectivesAcceptOnlyOnAndOff)
{
    auto parse = [](const std::string &text) {
        std::istringstream in(text);
        return campaign::parseSpec(in);
    };
    for (const char *key : {"incremental", "minimize", "payload", "replay"}) {
        SCOPED_TRACE(key);
        parse(std::string(key) + " on\n");
        parse(std::string(key) + " off\n");
    }
    EXPECT_TRUE(parse("replay on\n").validateByReplay);
    EXPECT_FALSE(parse("replay off\n").validateByReplay);
    EXPECT_TRUE(parse("incremental on\n").incrementalSolver);
    EXPECT_FALSE(parse("incremental off\n").incrementalSolver);
    // Any other word is an error: read as "off", a typo would silently
    // disable replay validation or the incremental backend.
    EXPECT_EXIT(parse("replay On\n"), ::testing::ExitedWithCode(1),
                "expected on or off");
    EXPECT_EXIT(parse("incremental yes\n"), ::testing::ExitedWithCode(1),
                "expected on or off");
}

TEST(CampaignSpec, RemovedDirectivesAreUnknown)
{
    // The deleted solver settings; `retries`, as every job runs once; and
    // the simulation backend, as every job simulates on one schedule.
    for (const char *line :
         {"rewrite on\n", "preprocess on\n", "solver-threads 4\n",
          "portfolio on\n", "cube-budget 0\n", "retries 1\n",
          "sim-backend compiled\n", "require-backend on\n"}) {
        SCOPED_TRACE(line);
        std::istringstream in(line);
        EXPECT_EXIT(campaign::parseSpec(in), ::testing::ExitedWithCode(1),
                    "unknown directive");
    }
}

TEST(CampaignSpec, NumericDirectivesRejectTrailingCharacters)
{
    auto parse = [](const std::string &text) {
        std::istringstream in(text);
        return campaign::parseSpec(in);
    };
    EXPECT_EQ(parse("conflict-budget 20000\n").solverConflictBudget, 20000);
    EXPECT_EQ(parse("conflict-budget -1\n").solverConflictBudget, -1);
    EXPECT_EQ(parse("workers 4\n").workers, 4);
    EXPECT_EQ(parse("seed 42\n").seed, 42u);
    EXPECT_DOUBLE_EQ(parse("time-limit 1.5\n").jobTimeLimitSeconds, 1.5);
    // A parsable prefix is not a number: "2e4" would cap every query at
    // 2 conflicts, and "4x" would run 4 workers.
    EXPECT_EXIT(parse("conflict-budget 2e4\n"),
                ::testing::ExitedWithCode(1), "malformed count");
    EXPECT_EXIT(parse("workers 4x\n"), ::testing::ExitedWithCode(1),
                "malformed count");
    EXPECT_EXIT(parse("seed 42abc\n"), ::testing::ExitedWithCode(1),
                "malformed value");
    EXPECT_EXIT(parse("time-limit 60s\n"), ::testing::ExitedWithCode(1),
                "malformed seconds");
    EXPECT_EXIT(parse("monitor 8080.5\n"), ::testing::ExitedWithCode(1),
                "malformed port");
    // -1 is unlimited; anything lower is a typo, not a budget.
    EXPECT_EXIT(parse("conflict-budget -5\n"),
                ::testing::ExitedWithCode(1), "budget must be >= -1");
}

TEST(CampaignSpec, SolverDefaultsComeFromSolverOptions)
{
    // Every layer that carries the three solver settings takes its
    // defaults from smt::SolverOptions, so a default flips in one place.
    const smt::SolverOptions solver;
    auto agrees = [&solver](const auto &opts, const char *layer) {
        SCOPED_TRACE(layer);
        EXPECT_EQ(opts.incrementalSolver, solver.incremental);
        EXPECT_EQ(opts.solverConflictBudget, solver.conflictBudget);
        EXPECT_EQ(opts.solverMinimize, solver.minimize);
    };
    agrees(campaign::CampaignSpec{}, "campaign::CampaignSpec");
    agrees(bse::Options{}, "bse::Options");
    agrees(bmc::BmcOptions{}, "bmc::BmcOptions");
}

// The placeholders for deleted solver settings carry nothing.
static_assert(std::is_empty_v<smt::RemovedOption>);
static_assert(!std::is_assignable_v<smt::RemovedOption &, bool>);
static_assert(!std::is_assignable_v<smt::RemovedOption &, int>);
static_assert(!std::is_assignable_v<smt::RemovedOption &, smt::Result>);
static_assert(
    !std::is_assignable_v<smt::RemovedOption &, smt::SolverOptions>);

TEST(CampaignSpec, RemovedSolverSettingsCopyAcrossOptionStructs)
{
    // perfbench/perfbench.cc makes exactly these copies; the test fails
    // to compile if a placeholder goes before that file stops naming it.
    const campaign::CampaignSpec spec;
    bse::Options engine;
    engine.solverRewrite = spec.solverRewrite;
    engine.solverPreprocess = spec.solverPreprocess;
    engine.solverAdaptive = spec.solverAdaptive;
    engine.solverThreads = spec.solverThreads;
    engine.solverPortfolio = spec.solverPortfolio;
    engine.solverCubeBudget = spec.solverCubeBudget;
    bmc::BmcOptions bmc;
    bmc.solverRewrite = spec.solverRewrite;
    bmc.solverPreprocess = spec.solverPreprocess;
    bmc.solverAdaptive = spec.solverAdaptive;
    bmc.solverThreads = spec.solverThreads;
    bmc.solverPortfolio = spec.solverPortfolio;
    bmc.solverCubeBudget = spec.solverCubeBudget;
    // The deleted simulation-backend settings, copied likewise.
    core::CoppeliaOptions exploit;
    exploit.simBackend = spec.simBackend;
    bmc.simBackend = spec.simBackend;
    fuzz::FuzzOptions fuzz;
    fuzz.backend = spec.simBackend;
}

// --- Real exploit-generation campaigns ---------------------------------

campaign::CampaignSpec
smallRealSpec()
{
    // Fast cells from Tables II and VI across all three cores.
    campaign::CampaignSpec spec;
    spec.name = "test-matrix";
    spec.workers = testWorkers();
    spec.seed = 1234;
    spec.jobTimeLimitSeconds = 60;
    struct Cell
    {
        cpu::Processor proc;
        cpu::BugId bug;
    };
    for (Cell c : {Cell{cpu::Processor::OR1200, cpu::BugId::b24},
                   Cell{cpu::Processor::OR1200, cpu::BugId::b30},
                   Cell{cpu::Processor::Mor1kxEspresso, cpu::BugId::b32},
                   Cell{cpu::Processor::PulpinoRi5cy, cpu::BugId::b33},
                   Cell{cpu::Processor::PulpinoRi5cy, cpu::BugId::b34},
                   Cell{cpu::Processor::PulpinoRi5cy, cpu::BugId::b35}}) {
        campaign::JobSpec job;
        job.processor = c.proc;
        job.bug = c.bug;
        spec.jobs.push_back(job);
    }
    return spec;
}

TEST(Campaign, ParallelMatchesSerialBaseline)
{
    campaign::CampaignSpec spec = smallRealSpec();

    // Serial baseline: the same jobs, same derived seeds, run inline.
    std::vector<campaign::JobResult> serial;
    for (std::size_t i = 0; i < spec.jobs.size(); ++i) {
        serial.push_back(campaign::runJob(
            spec, spec.jobs[i],
            campaign::deriveJobSeed(spec.seed, static_cast<int>(i), 0),
            nullptr));
    }

    campaign::CampaignResult parallel = campaign::runCampaign(spec);
    ASSERT_EQ(parallel.records.size(), spec.jobs.size());
    for (std::size_t i = 0; i < spec.jobs.size(); ++i) {
        const campaign::JobRecord &rec = parallel.records[i];
        ASSERT_EQ(static_cast<std::size_t>(rec.jobIndex), i);
        EXPECT_EQ(rec.result.found, serial[i].found) << i;
        EXPECT_EQ(rec.result.replayable, serial[i].replayable) << i;
        EXPECT_EQ(rec.result.triggerInstructions,
                  serial[i].triggerInstructions)
            << i;
        EXPECT_EQ(rec.result.iterations, serial[i].iterations) << i;
        EXPECT_EQ(rec.result.assertionId, serial[i].assertionId) << i;
    }

    // Aggregate stats are the sum of the per-job groups.
    StatGroup expected;
    for (const campaign::JobRecord &rec : parallel.records)
        expected.merge(rec.result.stats);
    EXPECT_EQ(parallel.stats.all(), expected.all());
}

TEST(Campaign, SameSeedReproducesJobForJob)
{
    campaign::CampaignSpec spec = smallRealSpec();
    campaign::CampaignResult a = campaign::runCampaign(spec);
    campaign::CampaignResult b = campaign::runCampaign(spec);
    ASSERT_EQ(a.records.size(), b.records.size());
    for (std::size_t i = 0; i < a.records.size(); ++i) {
        EXPECT_EQ(a.records[i].seed, b.records[i].seed) << i;
        EXPECT_EQ(a.records[i].result.found, b.records[i].result.found)
            << i;
        EXPECT_EQ(a.records[i].result.triggerInstructions,
                  b.records[i].result.triggerInstructions)
            << i;
        EXPECT_EQ(a.records[i].result.iterations,
                  b.records[i].result.iterations)
            << i;
    }
}

/** A job's stats without its wall-clock counters (the `*_us` keys). */
std::map<std::string, std::uint64_t>
workStats(const StatGroup &stats)
{
    std::map<std::string, std::uint64_t> out;
    for (const auto &[name, count] : stats.all()) {
        if (name.size() < 3 || name.compare(name.size() - 3, 3, "_us") != 0)
            out[name] = count;
    }
    return out;
}

TEST(Campaign, ExploitAndBmcResultsDoNotDependOnTheSeed)
{
    // The exploit search and BMC read no seed (only the fuzzer's
    // mutations do), so two base seeds give the same work job for job.
    // This is why a job is never rerun: a rerun would replay itself.
    campaign::CampaignSpec spec = smallRealSpec();
    campaign::JobSpec bmc;
    bmc.kind = campaign::JobKind::BmcEbmc;
    bmc.bug = cpu::BugId::b03;
    spec.jobs.push_back(bmc);

    spec.seed = 1;
    const campaign::CampaignResult a = campaign::runCampaign(spec);
    spec.seed = 777;
    const campaign::CampaignResult b = campaign::runCampaign(spec);
    ASSERT_EQ(a.records.size(), spec.jobs.size());
    ASSERT_EQ(b.records.size(), spec.jobs.size());
    for (std::size_t i = 0; i < spec.jobs.size(); ++i) {
        SCOPED_TRACE(i);
        const campaign::JobRecord &ra = a.records[i];
        const campaign::JobRecord &rb = b.records[i];
        EXPECT_NE(ra.seed, rb.seed);
        EXPECT_EQ(ra.result.status, rb.result.status);
        EXPECT_EQ(ra.result.outcome, rb.result.outcome);
        EXPECT_EQ(ra.result.found, rb.result.found);
        EXPECT_EQ(ra.result.replayable, rb.result.replayable);
        EXPECT_EQ(ra.result.iterations, rb.result.iterations);
        EXPECT_EQ(ra.result.triggerInstructions,
                  rb.result.triggerInstructions);
        EXPECT_EQ(ra.result.bmcDepth, rb.result.bmcDepth);
        EXPECT_EQ(workStats(ra.result.stats), workStats(rb.result.stats));
    }
    EXPECT_TRUE(a.records.back().result.found);
}

/** Lines of a JSONL artifact that carry a "meta" key. */
int
metaLines(const std::string &path)
{
    std::ifstream in(path);
    int n = 0;
    std::string line;
    while (std::getline(in, line)) {
        const json::Value v = json::parse(line);
        n += v.isObject() && v.find("meta") != nullptr;
    }
    return n;
}

TEST(Campaign, BudgetExhaustedJobRunsOnce)
{
    // At one conflict per query b28's search ends budget-exhausted in
    // well under a second. It is recorded once, as a completed job with
    // that outcome, and its one run is all the solver work the process
    // did: the registry agrees with the record.
    metrics::zeroAllMetrics();
    campaign::CampaignSpec spec;
    spec.workers = 1;
    spec.solverConflictBudget = 1;
    spec.artifactDir = testing::TempDir() + "coppelia_runs_once";
    std::filesystem::remove_all(spec.artifactDir);
    campaign::JobSpec job;
    job.bug = cpu::BugId::b28;
    spec.jobs.push_back(job);

    std::ostringstream jsonl;
    const campaign::CampaignResult result =
        campaign::runCampaign(spec, &jsonl);
    ASSERT_EQ(result.records.size(), 1u);
    const campaign::JobResult &r = result.records[0].result;
    EXPECT_EQ(r.status, campaign::JobStatus::Completed);
    EXPECT_EQ(r.outcome, bse::Outcome::BudgetExhausted);
    EXPECT_FALSE(r.found);
    EXPECT_EQ(metaLines(r.queriesArtifact), 1);
    EXPECT_EQ(metaLines(r.searchArtifact), 1);
    std::filesystem::remove_all(spec.artifactDir);

    const std::string text = jsonl.str();
    ASSERT_EQ(std::count(text.begin(), text.end(), '\n'), 1);
    std::string err;
    const json::Value rec = json::parse(text.substr(0, text.find('\n')),
                                        &err);
    ASSERT_TRUE(rec.isObject()) << err;
    EXPECT_EQ(rec.find("status")->asString(), "completed");
    EXPECT_EQ(rec.find("outcome")->asString(), "budget-exhausted");
    const json::Value *sat_calls =
        rec.find("stats")->find("solver_sat_calls");
    ASSERT_NE(sat_calls, nullptr);
    EXPECT_GT(sat_calls->asInt(), 0);
    EXPECT_EQ(metrics::counter("solver_sat_calls")->value(),
              static_cast<std::uint64_t>(sat_calls->asInt()));
    EXPECT_EQ(metrics::counter("bse_iterations")->value(),
              static_cast<std::uint64_t>(rec.find("iterations")->asInt()));
    EXPECT_EQ(metrics::counter("campaign_jobs_completed")->value(), 1u);
}

TEST(Campaign, TelemetryJsonlParsesBack)
{
    campaign::CampaignSpec spec = smallRealSpec();
    std::ostringstream jsonl;
    campaign::CampaignResult result =
        campaign::runCampaign(spec, &jsonl);

    std::istringstream lines(jsonl.str());
    std::string line;
    std::set<int> seen_jobs;
    int n_lines = 0;
    while (std::getline(lines, line)) {
        ++n_lines;
        std::string err;
        json::Value rec = json::parse(line, &err);
        ASSERT_TRUE(err.empty()) << err << "\nline: " << line;
        ASSERT_TRUE(rec.isObject());
        for (const char *key : {"job", "kind", "processor", "bug",
                                "assertion", "status", "found",
                                "replayable", "trigger_instructions",
                                "seconds", "worker", "seed", "stats"}) {
            EXPECT_NE(rec.find(key), nullptr) << key;
        }
        EXPECT_EQ(rec.find("attempts"), nullptr);
        const int job = static_cast<int>(rec.find("job")->asInt());
        seen_jobs.insert(job);

        // Cross-check the record against the in-memory result.
        const campaign::JobRecord &mem =
            result.records[static_cast<std::size_t>(job)];
        EXPECT_EQ(rec.find("found")->asBool(), mem.result.found);
        EXPECT_EQ(rec.find("bug")->asString(),
                  cpu::bugName(mem.spec.bug));
        EXPECT_EQ(rec.find("assertion")->asString(),
                  mem.spec.assertionId);
        EXPECT_EQ(rec.find("seed")->asString(),
                  std::to_string(mem.seed));
        EXPECT_TRUE(rec.find("stats")->isObject());
    }
    EXPECT_EQ(n_lines, static_cast<int>(spec.jobs.size()));
    EXPECT_EQ(seen_jobs.size(), spec.jobs.size());

    // And the summary renders without dying.
    std::ostringstream summary;
    campaign::writeSummary(summary, spec, result.records,
                           result.scheduler);
    EXPECT_NE(summary.str().find("generated"), std::string::npos);
}

TEST(Campaign, JobWithoutAssertionIsRecordedNotDropped)
{
    // b16 has no assertion (out of scope in the paper); the record must
    // land in the store with the no-assertion status instead of
    // vanishing from the matrix.
    campaign::CampaignSpec spec;
    spec.workers = 1;
    campaign::JobSpec job;
    job.processor = cpu::Processor::OR1200;
    job.bug = cpu::BugId::b16;
    spec.jobs.push_back(job);

    campaign::CampaignResult result = campaign::runCampaign(spec);
    ASSERT_EQ(result.records.size(), 1u);
    EXPECT_EQ(result.records[0].result.status,
              campaign::JobStatus::NoAssertion);
    EXPECT_FALSE(result.records[0].result.found);
}

// --- Thread-safety smoke -----------------------------------------------

TEST(Logging, ConcurrentEmitDoesNotCrash)
{
    // The sink mutex keeps concurrent warn() calls from interleaving or
    // racing; this exercises it under ThreadSanitizer-style stress.
    const LogLevel before = logLevel();
    setLogLevel(LogLevel::Quiet);
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([t] {
            for (int i = 0; i < 200; ++i) {
                setLogLevel(i % 2 == 0 ? LogLevel::Quiet
                                       : LogLevel::Warn);
                warn("thread ", t, " message ", i);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    setLogLevel(before);
}

} // namespace
} // namespace coppelia
