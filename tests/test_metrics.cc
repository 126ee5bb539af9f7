/**
 * @file
 * The live metrics registry: exact aggregation under concurrent
 * increments, histogram bucket-boundary placement, handle interning,
 * Prometheus exposition shape (golden output on a hand-built snapshot),
 * name sanitization, heartbeat slots, and the hot-path allocation
 * guarantee — counter/gauge/histogram updates must not touch the heap,
 * the same discipline test_trace.cc pins for disabled spans.
 */

#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "counting_alloc.hh"
#include "metrics/metrics.hh"

using namespace coppelia;

namespace
{

TEST(Metrics, CounterCountsExactly)
{
    metrics::Counter *c = metrics::counter("test_basic_counter");
    const std::uint64_t before = c->value();
    c->inc();
    c->inc(41);
    EXPECT_EQ(c->value(), before + 42);
}

TEST(Metrics, ConcurrentIncrementsAggregateExactly)
{
    metrics::Counter *c = metrics::counter("test_concurrent_counter");
    const std::uint64_t before = c->value();
    constexpr int kThreads = 8;
    constexpr std::uint64_t kPerThread = 100000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([c] {
            for (std::uint64_t i = 0; i < kPerThread; ++i)
                c->inc();
        });
    }
    for (std::thread &t : threads)
        t.join();
    // Writers have joined, so the shard sum is exact, not approximate.
    EXPECT_EQ(c->value(), before + kThreads * kPerThread);
}

TEST(Metrics, InterningReturnsTheSameHandle)
{
    metrics::Counter *a = metrics::counter("test_interned", "first");
    metrics::Counter *b = metrics::counter("test_interned", "other help");
    EXPECT_EQ(a, b);
    // Distinct labels are a distinct series with its own handle.
    metrics::Counter *labeled =
        metrics::counter("test_interned", "", "worker=\"0\"");
    EXPECT_NE(a, labeled);
    EXPECT_EQ(labeled,
              metrics::counter("test_interned", "", "worker=\"0\""));
}

TEST(Metrics, GaugeSetAddAndValue)
{
    metrics::Gauge *g = metrics::gauge("test_gauge");
    g->set(2.5);
    EXPECT_DOUBLE_EQ(g->value(), 2.5);
    g->add(-1.0);
    EXPECT_DOUBLE_EQ(g->value(), 1.5);
    g->set(0.0);
}

TEST(Metrics, HistogramBucketBoundaries)
{
    // Prometheus semantics: bucket i holds observations <= bounds[i].
    metrics::Histogram *h =
        metrics::histogram("test_hist_bounds", {10, 100, 1000});
    h->observe(5);    // <= 10
    h->observe(10);   // <= 10 (boundary is inclusive)
    h->observe(11);   // <= 100
    h->observe(100);  // <= 100
    h->observe(5000); // +Inf
    EXPECT_EQ(h->count(), 5u);
    EXPECT_EQ(h->sum(), 5u + 10 + 11 + 100 + 5000);

    bool found = false;
    for (const metrics::HistogramSample &s :
         metrics::snapshot().histograms) {
        if (s.name != "test_hist_bounds")
            continue;
        found = true;
        ASSERT_EQ(s.bucketCounts.size(), 4u); // 3 finite + (+Inf)
        EXPECT_EQ(s.bucketCounts[0], 2u);
        EXPECT_EQ(s.bucketCounts[1], 2u);
        EXPECT_EQ(s.bucketCounts[2], 0u);
        EXPECT_EQ(s.bucketCounts[3], 1u);
        EXPECT_EQ(s.count, 5u);
    }
    EXPECT_TRUE(found);
}

TEST(Metrics, PrometheusNameSanitization)
{
    EXPECT_EQ(metrics::prometheusName("smt.solve_us"),
              "coppelia_smt_solve_us");
    EXPECT_EQ(metrics::prometheusName("solver_queries"),
              "coppelia_solver_queries");
    EXPECT_EQ(metrics::prometheusName("a-b c"), "coppelia_a_b_c");
}

TEST(Metrics, PrometheusExpositionGolden)
{
    // A hand-built snapshot pins the exact exposition text: HELP/TYPE
    // headers, label bodies, cumulative buckets closed by +Inf, _sum and
    // _count series.
    metrics::Snapshot snap;
    metrics::CounterSample c;
    c.name = "jobs_done";
    c.help = "finished jobs";
    c.value = 7;
    snap.counters.push_back(c);
    metrics::GaugeSample g;
    g.name = "queue_depth";
    g.labels = "worker=\"3\"";
    g.value = 2.5;
    snap.gauges.push_back(g);
    metrics::HistogramSample h;
    h.name = "smt.solve_us";
    h.help = "solver latency";
    h.bounds = {100, 1000};
    h.bucketCounts = {4, 1, 2}; // per-bucket, +Inf last
    h.count = 7;
    h.sum = 12345;
    snap.histograms.push_back(h);

    std::ostringstream out;
    metrics::writePrometheus(out, snap);
    EXPECT_EQ(out.str(),
              "# HELP coppelia_jobs_done finished jobs\n"
              "# TYPE coppelia_jobs_done counter\n"
              "coppelia_jobs_done 7\n"
              "# TYPE coppelia_queue_depth gauge\n"
              "coppelia_queue_depth{worker=\"3\"} 2.5\n"
              "# HELP coppelia_smt_solve_us solver latency\n"
              "# TYPE coppelia_smt_solve_us histogram\n"
              "coppelia_smt_solve_us_bucket{le=\"100\"} 4\n"
              "coppelia_smt_solve_us_bucket{le=\"1000\"} 5\n"
              "coppelia_smt_solve_us_bucket{le=\"+Inf\"} 7\n"
              "coppelia_smt_solve_us_sum 12345\n"
              "coppelia_smt_solve_us_count 7\n"
              "# HELP coppelia_smt_solve_us_quantile "
              "estimated quantiles of coppelia_smt_solve_us\n"
              "# TYPE coppelia_smt_solve_us_quantile gauge\n"
              // p50: rank 3.5 of 7 lands in the first bucket (4 obs,
              // bound 100), interpolated from 0: 100 * 3.5/4 = 87.5.
              // p90 (rank 6.3) and p99 (rank 6.93) land in +Inf and
              // clamp to the highest finite bound.
              "coppelia_smt_solve_us_quantile{quantile=\"0.5\"} 87.5\n"
              "coppelia_smt_solve_us_quantile{quantile=\"0.9\"} 1000\n"
              "coppelia_smt_solve_us_quantile{quantile=\"0.99\"} 1000\n");
}

TEST(Metrics, HistogramQuantileExactBucketMath)
{
    metrics::HistogramSample s;
    s.bounds = {10, 100, 1000};
    s.bucketCounts = {5, 3, 2, 0}; // per-bucket, +Inf last
    s.count = 10;

    // p50: rank 5 of 10 is exactly the last observation of bucket 0
    // (5 obs, bound 10), interpolated from 0: 10 * 5/5 = 10.
    EXPECT_DOUBLE_EQ(metrics::histogramQuantile(s, 0.5), 10.0);
    // p90: rank 9 lands in bucket 2 (2 obs, 100..1000), one deep:
    // 100 + 900 * (9-8)/2 = 550.
    EXPECT_DOUBLE_EQ(metrics::histogramQuantile(s, 0.9), 550.0);
    // p99: rank 9.9, 1.9 deep into bucket 2: 100 + 900 * 1.9/2 = 955.
    EXPECT_DOUBLE_EQ(metrics::histogramQuantile(s, 0.99), 955.0);
    // p10: rank 1 interpolates inside the first bucket from 0.
    EXPECT_DOUBLE_EQ(metrics::histogramQuantile(s, 0.1), 2.0);
    // q=1 is the top of the highest non-empty finite bucket.
    EXPECT_DOUBLE_EQ(metrics::histogramQuantile(s, 1.0), 1000.0);

    // Observations past every finite bound clamp to the last bound.
    metrics::HistogramSample inf;
    inf.bounds = {10, 100};
    inf.bucketCounts = {1, 0, 4};
    inf.count = 5;
    EXPECT_DOUBLE_EQ(metrics::histogramQuantile(inf, 0.9), 100.0);

    // Empty histogram: no estimate to give.
    metrics::HistogramSample empty;
    empty.bounds = {10};
    empty.bucketCounts = {0, 0};
    EXPECT_DOUBLE_EQ(metrics::histogramQuantile(empty, 0.5), 0.0);
}

TEST(Metrics, SnapshotJsonCarriesQuantiles)
{
    metrics::Histogram *h =
        metrics::histogram("test_json_quantiles", {10, 100, 1000});
    for (int i = 0; i < 5; ++i)
        h->observe(5);
    for (int i = 0; i < 3; ++i)
        h->observe(50);
    h->observe(500);
    h->observe(500);

    const json::Value doc = metrics::snapshotJson(metrics::snapshot());
    const json::Value *hists = doc.find("histograms");
    ASSERT_NE(hists, nullptr);
    const json::Value *mine = hists->find("test_json_quantiles");
    ASSERT_NE(mine, nullptr);
    const json::Value *p50 = mine->find("p50");
    const json::Value *p90 = mine->find("p90");
    const json::Value *p99 = mine->find("p99");
    ASSERT_NE(p50, nullptr);
    ASSERT_NE(p90, nullptr);
    ASSERT_NE(p99, nullptr);
    // Same shape as HistogramQuantileExactBucketMath: {5,3,2} over
    // bounds {10,100,1000}.
    EXPECT_DOUBLE_EQ(p50->asNumber(), 10.0);
    EXPECT_DOUBLE_EQ(p90->asNumber(), 550.0);
    EXPECT_DOUBLE_EQ(p99->asNumber(), 955.0);
}

TEST(Metrics, HelpAndTypeEmittedOncePerFamily)
{
    metrics::Snapshot snap;
    for (int w = 0; w < 2; ++w) {
        metrics::GaugeSample g;
        g.name = "worker_busy";
        g.labels = "worker=\"" + std::to_string(w) + "\"";
        g.help = "1 while running a job";
        g.value = w;
        snap.gauges.push_back(g);
    }
    std::ostringstream out;
    metrics::writePrometheus(out, snap);
    const std::string text = out.str();
    const std::string type_line = "# TYPE coppelia_worker_busy gauge\n";
    const std::size_t first = text.find(type_line);
    ASSERT_NE(first, std::string::npos);
    EXPECT_EQ(text.find(type_line, first + 1), std::string::npos);
}

TEST(Metrics, SnapshotJsonShape)
{
    metrics::Counter *c = metrics::counter("test_json_counter");
    c->inc(3);
    const json::Value doc = metrics::snapshotJson(metrics::snapshot());
    ASSERT_TRUE(doc.isObject());
    const json::Value *counters = doc.find("counters");
    ASSERT_NE(counters, nullptr);
    const json::Value *mine = counters->find("test_json_counter");
    ASSERT_NE(mine, nullptr);
    EXPECT_GE(mine->asInt(), 3);
    EXPECT_NE(doc.find("gauges"), nullptr);
    EXPECT_NE(doc.find("histograms"), nullptr);
    EXPECT_NE(doc.find("timestamp_us"), nullptr);
}

TEST(Metrics, HeartbeatPublishesPhaseAndProgress)
{
    // Warm the clock: the metrics epoch starts on the first nowUs()
    // call, so a beat in the same microsecond would record 0.
    (void)metrics::nowUs();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    metrics::heartbeat("test.phase", 17, 4);
    metrics::Heartbeat *slot = metrics::threadHeartbeat();
    EXPECT_STREQ(slot->phase.load(), "test.phase");
    EXPECT_EQ(slot->a.load(), 17u);
    EXPECT_EQ(slot->b.load(), 4u);
    EXPECT_GT(slot->updatedUs.load(), 0u);
    slot->clear();
    EXPECT_EQ(slot->phase.load(), nullptr);
}

TEST(Metrics, ZeroAllResetsValuesButKeepsHandles)
{
    metrics::Counter *c = metrics::counter("test_zeroed_counter");
    metrics::Gauge *g = metrics::gauge("test_zeroed_gauge");
    c->inc(9);
    g->set(9.0);
    metrics::zeroAllMetrics();
    EXPECT_EQ(c->value(), 0u);
    EXPECT_DOUBLE_EQ(g->value(), 0.0);
    c->inc(); // handle still live and wired to the same cell
    EXPECT_EQ(c->value(), 1u);
}

TEST(Metrics, HotPathDoesNotAllocate)
{
    // Registration and first-touch shard/heartbeat creation allocate;
    // warm everything up first, then assert the steady state is clean.
    metrics::Counter *c = metrics::counter("test_hot_counter");
    metrics::Gauge *g = metrics::gauge("test_hot_gauge");
    metrics::Histogram *h =
        metrics::histogram("test_hot_hist", {10, 100, 1000});
    c->inc();
    g->set(1.0);
    h->observe(50);
    metrics::heartbeat("test.hot", 0);

    const std::uint64_t before = allocationCount();
    for (std::uint64_t i = 0; i < 10000; ++i) {
        c->inc();
        g->set(static_cast<double>(i));
        g->add(1.0);
        h->observe(i);
        metrics::heartbeat("test.hot", i, i);
    }
    EXPECT_EQ(allocationCount(), before)
        << "metric updates must not allocate";
}

} // namespace
