/**
 * @file
 * The embedded campaign monitor: HTTP round-trips against an
 * ephemeral-port server (/metrics exposition, /status JSON, 404s, clean
 * and idempotent shutdown), live scraping while a real campaign runs,
 * and the acceptance cross-check of the observability stack — after a
 * monitored Table II smoke campaign the metrics registry, the JSONL
 * telemetry, and the trace fold must report the same solver work.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/campaign.hh"
#include "metrics/metrics.hh"
#include "monitor/monitor.hh"
#include "trace/fold.hh"
#include "util/json.hh"

using namespace coppelia;

namespace
{

TEST(Monitor, ServesMetricsOnEphemeralPort)
{
    // Touch a counter so the exposition is non-empty.
    metrics::counter("test_monitor_counter", "round-trip probe")->inc();

    monitor::Server server;
    ASSERT_TRUE(server.start());
    ASSERT_GT(server.port(), 0);
    EXPECT_TRUE(server.running());

    std::string body, error;
    ASSERT_TRUE(monitor::httpGet("127.0.0.1", server.port(), "/metrics",
                                 &body, &error))
        << error;
    EXPECT_NE(body.find("# TYPE coppelia_test_monitor_counter counter"),
              std::string::npos)
        << body;
    EXPECT_NE(body.find("coppelia_test_monitor_counter "),
              std::string::npos);

    server.stop();
    EXPECT_FALSE(server.running());
}

TEST(Monitor, StatusIsJsonAndProviderOverrides)
{
    monitor::Server server;
    ASSERT_TRUE(server.start());

    // Default /status: the bare registry snapshot document.
    std::string body, error;
    ASSERT_TRUE(monitor::httpGet("127.0.0.1", server.port(), "/status",
                                 &body, &error))
        << error;
    std::string parse_error;
    json::Value doc = json::parse(body, &parse_error);
    ASSERT_TRUE(doc.isObject()) << parse_error;
    EXPECT_NE(doc.find("counters"), nullptr);

    // An installed provider replaces the document wholesale.
    server.setStatusProvider([] {
        json::Value v = json::Value::object();
        v.set("custom", json::Value::boolean(true));
        return v;
    });
    ASSERT_TRUE(monitor::httpGet("127.0.0.1", server.port(), "/status",
                                 &body, &error))
        << error;
    doc = json::parse(body, &parse_error);
    ASSERT_TRUE(doc.isObject()) << parse_error;
    const json::Value *custom = doc.find("custom");
    ASSERT_NE(custom, nullptr);
    EXPECT_TRUE(custom->asBool());

    // Clearing the provider restores the default.
    server.setStatusProvider(nullptr);
    ASSERT_TRUE(monitor::httpGet("127.0.0.1", server.port(), "/status",
                                 &body, &error));
    doc = json::parse(body, &parse_error);
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.find("custom"), nullptr);
    EXPECT_NE(doc.find("counters"), nullptr);
}

TEST(Monitor, UnknownPathsFailAndStopIsIdempotent)
{
    monitor::Server server;
    ASSERT_TRUE(server.start());
    const int port = server.port();

    std::string body;
    EXPECT_FALSE(
        monitor::httpGet("127.0.0.1", port, "/nope", &body, nullptr));
    // The index page still answers.
    EXPECT_TRUE(monitor::httpGet("127.0.0.1", port, "/", &body, nullptr));

    server.stop();
    server.stop(); // idempotent
    EXPECT_FALSE(server.running());
    std::string error;
    EXPECT_FALSE(
        monitor::httpGet("127.0.0.1", port, "/metrics", &body, &error));
}

TEST(Monitor, HttpGetReportsConnectFailure)
{
    monitor::Server probe;
    ASSERT_TRUE(probe.start());
    const int dead_port = probe.port();
    probe.stop(); // nothing listens on dead_port now

    std::string body, error;
    EXPECT_FALSE(monitor::httpGet("127.0.0.1", dead_port, "/status",
                                  &body, &error));
    EXPECT_FALSE(error.empty());
}

// The acceptance cross-check: one monitored smoke campaign, then the
// three observability systems must agree on the same solver work.
//  - metrics registry (scraped live over HTTP and read after the run)
//  - JSONL telemetry (per-job stats objects, summed)
//  - trace fold (smt.solve span count)
TEST(Monitor, RegistryJsonlAndTraceFoldAgree)
{
    // Process-global registry: zero it so this campaign's increments are
    // the only contribution.
    metrics::zeroAllMetrics();

    campaign::CampaignSpec spec;
    spec.name = "monitor-smoke";
    spec.workers = 2;
    spec.seed = 1234;
    spec.jobTimeLimitSeconds = 60;
    spec.traceFile = testing::TempDir() + "coppelia_monitor_smoke.json";
    struct Cell
    {
        cpu::Processor proc;
        cpu::BugId bug;
    };
    for (Cell c : {Cell{cpu::Processor::OR1200, cpu::BugId::b24},
                   Cell{cpu::Processor::OR1200, cpu::BugId::b30},
                   Cell{cpu::Processor::PulpinoRi5cy, cpu::BugId::b33}}) {
        campaign::JobSpec job;
        job.processor = c.proc;
        job.bug = c.bug;
        spec.jobs.push_back(job);
    }

    monitor::Server server;
    ASSERT_TRUE(server.start());

    // Scrape both endpoints from a second thread while the jobs run; the
    // endpoints must answer for the whole run, not just at the edges.
    std::atomic<bool> done{false};
    std::atomic<int> status_ok{0}, metrics_ok{0};
    std::atomic<bool> scrape_failed{false};
    std::thread scraper([&] {
        while (!done.load(std::memory_order_acquire)) {
            std::string body;
            if (monitor::httpGet("127.0.0.1", server.port(), "/status",
                                 &body, nullptr)) {
                std::string perr;
                const json::Value doc = json::parse(body, &perr);
                // Before the campaign installs its provider the server
                // answers with the bare registry snapshot (no "jobs");
                // that is a valid response, not a failure — only count
                // the campaign view, but flag any non-JSON body.
                if (!doc.isObject())
                    scrape_failed.store(true);
                else if (doc.find("jobs"))
                    status_ok.fetch_add(1);
            }
            if (monitor::httpGet("127.0.0.1", server.port(), "/metrics",
                                 &body, nullptr) &&
                body.find("# TYPE") != std::string::npos)
                metrics_ok.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
    });

    std::ostringstream jsonl;
    campaign::CampaignResult result =
        campaign::runCampaign(spec, &jsonl, &server);
    done.store(true, std::memory_order_release);
    scraper.join();
    std::remove(spec.traceFile.c_str());

    EXPECT_FALSE(scrape_failed.load()) << "non-JSON /status during run";
    EXPECT_GT(status_ok.load(), 0) << "no successful /status scrape";
    EXPECT_GT(metrics_ok.load(), 0) << "no successful /metrics scrape";
    EXPECT_EQ(result.monitorPort, server.port());
    ASSERT_EQ(result.records.size(), spec.jobs.size());

    // Sum the per-job stats objects straight from the JSONL text, the
    // same way a downstream consumer would.
    std::uint64_t jsonl_sat_calls = 0, jsonl_inc_queries = 0;
    std::uint64_t jsonl_querylog_wall_us = 0, jsonl_querylog_records = 0;
    std::istringstream lines(jsonl.str());
    std::string line;
    std::size_t parsed = 0;
    while (std::getline(lines, line)) {
        std::string perr;
        const json::Value rec = json::parse(line, &perr);
        ASSERT_TRUE(rec.isObject()) << perr;
        ++parsed;
        const json::Value *stats = rec.find("stats");
        ASSERT_NE(stats, nullptr);
        if (const json::Value *v = stats->find("solver_sat_calls"))
            jsonl_sat_calls += static_cast<std::uint64_t>(v->asInt());
        if (const json::Value *v =
                stats->find("solver_incremental_queries"))
            jsonl_inc_queries += static_cast<std::uint64_t>(v->asInt());
        if (const json::Value *v = stats->find("querylog_wall_us"))
            jsonl_querylog_wall_us +=
                static_cast<std::uint64_t>(v->asInt());
        if (const json::Value *v = stats->find("querylog_records"))
            jsonl_querylog_records +=
                static_cast<std::uint64_t>(v->asInt());
    }
    ASSERT_EQ(parsed, spec.jobs.size());

    // Registry vs JSONL vs in-memory aggregate: identical totals.
    const std::uint64_t reg_sat_calls =
        metrics::counter("solver_sat_calls")->value();
    const std::uint64_t reg_inc_queries =
        metrics::counter("solver_incremental_queries")->value();
    EXPECT_GT(reg_sat_calls, 0u);
    EXPECT_EQ(reg_sat_calls, jsonl_sat_calls);
    EXPECT_EQ(reg_inc_queries, jsonl_inc_queries);
    EXPECT_EQ(reg_sat_calls,
              result.stats.get("solver_sat_calls"));
    EXPECT_EQ(reg_inc_queries,
              result.stats.get("solver_incremental_queries"));

    // The smt.solve_us histogram observes exactly once per SAT dispatch,
    // and the smt.solve trace span brackets the same region — all three
    // systems count the same events.
    std::uint64_t hist_count = 0;
    for (const metrics::HistogramSample &h :
         metrics::snapshot().histograms) {
        if (h.name == "smt.solve_us")
            hist_count += h.count;
    }
    EXPECT_EQ(hist_count, reg_sat_calls);
    const trace::FoldReport fold = trace::foldLive();
    const trace::FoldRow *row = fold.find("smt.solve");
    ASSERT_NE(row, nullptr);
    EXPECT_EQ(row->count, reg_sat_calls);

    // Fourth system: the per-query forensics log. Its JSONL accounting
    // (querylog_records / querylog_wall_us per job) records one entry
    // per SAT dispatch with the exact `us` the histogram observed, so
    // counts and summed wall time match the registry to the microsecond;
    // the smt.solve trace span brackets the same region on its own clock
    // reads, so the fold total agrees within 1%.
    std::uint64_t hist_sum = 0;
    for (const metrics::HistogramSample &h : metrics::snapshot().histograms) {
        if (h.name == "smt.solve_us")
            hist_sum += h.sum;
    }
    EXPECT_EQ(jsonl_querylog_records, reg_sat_calls);
    EXPECT_EQ(jsonl_querylog_wall_us, hist_sum);
    const double fold_total = static_cast<double>(row->totalUs);
    const double log_total = static_cast<double>(jsonl_querylog_wall_us);
    // 1% relative, with a small absolute floor: this smoke's solver
    // total is ~0.2s of microsecond-scale queries, so a couple of
    // scheduler preemptions between a span's two clock reads are
    // measurement noise, not lost records.
    EXPECT_NEAR(fold_total, log_total,
                std::max(0.01 * std::max(fold_total, log_total), 5000.0))
        << "trace fold and query log disagree by more than 1%";

    // And the live exposition agrees with the registry it renders.
    std::string body, error;
    ASSERT_TRUE(monitor::httpGet("127.0.0.1", server.port(), "/metrics",
                                 &body, &error))
        << error;
    EXPECT_NE(body.find("coppelia_solver_sat_calls " +
                        std::to_string(reg_sat_calls)),
              std::string::npos)
        << body;
    server.stop();
}

} // namespace
