/**
 * @file
 * Campaign orchestrator tests: the generic scheduler (work distribution,
 * stealing, watchdog timeout, bounded retry), spec parsing and matrix
 * expansion, the JSON utility, JSONL telemetry round-tripping, and —
 * with real exploit-generation jobs — parallel-vs-serial result parity
 * and seed-for-seed reproducibility.
 *
 * The worker count comes from COPPELIA_CAMPAIGN_WORKERS when set (the
 * ctest entry pins it to 4), defaulting to 4.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
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
    std::set<int> worker_ids;
    std::mutex mu;
    for (int i = 0; i < n_tasks; ++i) {
        campaign::Task t;
        t.fn = [&, i](const campaign::TaskContext &ctx) {
            // Uneven task sizes so stealing has something to balance.
            std::this_thread::sleep_for(
                std::chrono::milliseconds(i % 7));
            results[static_cast<std::size_t>(i)] = i * i;
            std::lock_guard<std::mutex> lock(mu);
            worker_ids.insert(ctx.workerId);
            return campaign::TaskDisposition::Done;
        };
        sched.add(std::move(t));
    }
    campaign::SchedulerReport report = sched.runAll();

    EXPECT_EQ(report.tasksSubmitted, n_tasks);
    EXPECT_EQ(report.attemptsRun, n_tasks);
    EXPECT_EQ(report.workers, testWorkers());
    EXPECT_EQ(report.timeouts, 0);
    EXPECT_EQ(report.retriesIssued, 0);
    for (int i = 0; i < n_tasks; ++i)
        EXPECT_EQ(results[static_cast<std::size_t>(i)].load(), i * i);
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
        return campaign::TaskDisposition::Done;
    };
    sched.add(std::move(slow));

    campaign::Task quick;
    quick.timeoutSeconds = 30.0;
    quick.fn = [](const campaign::TaskContext &) {
        return campaign::TaskDisposition::Done;
    };
    sched.add(std::move(quick));

    campaign::SchedulerReport report = sched.runAll();
    EXPECT_TRUE(long_job_observed_cancel.load());
    EXPECT_EQ(report.timeouts, 1);
    EXPECT_EQ(report.attemptsRun, 2);
}

TEST(Scheduler, RetryRequeuesExactlyOnce)
{
    campaign::SchedulerOptions opts;
    opts.workers = 2;
    opts.maxRetries = 1;
    campaign::Scheduler sched(opts);

    // Always-failing task: one retry is granted, then the budget is
    // spent and the scheduler moves on.
    std::atomic<int> hopeless_attempts{0};
    campaign::Task hopeless;
    hopeless.fn = [&](const campaign::TaskContext &ctx) {
        ++hopeless_attempts;
        EXPECT_LE(ctx.attempt, 1);
        return campaign::TaskDisposition::Retry;
    };
    sched.add(std::move(hopeless));

    // Flaky task: fails once, succeeds on the retry.
    std::atomic<int> flaky_attempts{0};
    campaign::Task flaky;
    flaky.fn = [&](const campaign::TaskContext &ctx) {
        ++flaky_attempts;
        return ctx.attempt == 0 ? campaign::TaskDisposition::Retry
                                : campaign::TaskDisposition::Done;
    };
    sched.add(std::move(flaky));

    campaign::SchedulerReport report = sched.runAll();
    EXPECT_EQ(hopeless_attempts.load(), 2);
    EXPECT_EQ(flaky_attempts.load(), 2);
    EXPECT_EQ(report.attemptsRun, 4);
    EXPECT_EQ(report.retriesIssued, 2);
    EXPECT_EQ(report.retriesExhausted, 1);
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
retries    2
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
    EXPECT_EQ(spec.maxRetries, 2);

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
    for (const char *key : {"incremental", "minimize", "portfolio",
                            "require-backend", "payload", "replay"}) {
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

TEST(CampaignSpec, RemovedSolverDirectivesAreUnknown)
{
    for (const char *line : {"rewrite on\n", "preprocess on\n"}) {
        SCOPED_TRACE(line);
        std::istringstream in(line);
        EXPECT_EXIT(campaign::parseSpec(in), ::testing::ExitedWithCode(1),
                    "unknown directive");
    }
}

TEST(CampaignSpec, SolverDefaultsComeFromSolverOptions)
{
    // Every layer that carries the six solver settings takes its
    // defaults from smt::SolverOptions, so a default flips in one place.
    const smt::SolverOptions solver;
    auto agrees = [&solver](const auto &opts, const char *layer) {
        SCOPED_TRACE(layer);
        EXPECT_EQ(opts.incrementalSolver, solver.incremental);
        EXPECT_EQ(opts.solverConflictBudget, solver.conflictBudget);
        EXPECT_EQ(opts.solverMinimize, solver.minimize);
        EXPECT_EQ(opts.solverThreads, solver.threads);
        EXPECT_EQ(opts.solverPortfolio, solver.portfolio);
        EXPECT_EQ(opts.solverCubeBudget, solver.cubeBudget);
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
    bmc::BmcOptions bmc;
    bmc.solverRewrite = spec.solverRewrite;
    bmc.solverPreprocess = spec.solverPreprocess;
    bmc.solverAdaptive = spec.solverAdaptive;
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
                                "seconds", "attempts", "worker", "seed",
                                "stats"}) {
            EXPECT_NE(rec.find(key), nullptr) << key;
        }
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
