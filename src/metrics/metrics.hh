/**
 * @file
 * Process-wide live metrics registry: counters, gauges, and fixed-bucket
 * histograms, built for scraping *while a campaign runs* (the monitor
 * serves them over HTTP; coppelia-top renders them). Where trace spans
 * answer "where did the time go" after the fact, the registry answers
 * "what is the search doing right now" — BSEE iterations/sec, SMT query
 * latency, per-worker job state — without waiting for the end-of-run
 * JSONL to land.
 *
 * Design constraints (same discipline as trace::Span):
 *  - hot-path cost is one relaxed atomic add, monitor attached or not:
 *    counter and histogram cells live in per-thread shards, so an
 *    increment is a thread-local lookup plus an uncontended fetch_add —
 *    no lock, no allocation, no clock read (unit-asserted with the
 *    operator-new-counting test that also pins the disabled Span).
 *  - handles are process-lifetime: counter()/gauge()/histogram() intern
 *    by (name, labels) and return a stable pointer, so call sites cache
 *    the handle in a function-local static and pay the registry mutex
 *    once per process.
 *  - snapshot() sums the shards under the registry mutex. Values read
 *    while writers are live are approximate (relaxed ordering); after
 *    the writing threads join they are exact — which is what the
 *    registry-vs-JSONL-vs-trace-fold consistency test relies on.
 *
 * Metric names reuse the JSONL telemetry keys where the two report the
 * same quantity (`solver_incremental_queries`, `solver_sat_calls`, ...),
 * so /metrics, campaign.jsonl, and the trace fold agree on one source of
 * truth. Names and label strings must be literals (or otherwise live for
 * the process lifetime).
 */

#ifndef COPPELIA_METRICS_METRICS_HH
#define COPPELIA_METRICS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/json.hh"

namespace coppelia::metrics
{

/** Monotonic microseconds since the process metrics epoch. */
std::uint64_t nowUs();

/** Monotonically increasing event count. */
class Counter
{
  public:
    /** One relaxed fetch_add on the calling thread's shard. */
    void inc(std::uint64_t delta = 1);

    /** Sum across shards (approximate while writers are live). */
    std::uint64_t value() const;

  private:
    friend class Registry;
    explicit Counter(std::size_t cell) : cell_(cell) {}
    std::size_t cell_;
};

/** Last-write-wins instantaneous value (worker state, queue depth). Not
 *  sharded: a gauge has one writer at a time by convention. */
class Gauge
{
  public:
    void set(double v) { value_.store(v, std::memory_order_relaxed); }
    double value() const
    {
        return value_.load(std::memory_order_relaxed);
    }
    void
    add(double d)
    {
        double cur = value_.load(std::memory_order_relaxed);
        while (!value_.compare_exchange_weak(cur, cur + d,
                                             std::memory_order_relaxed)) {
        }
    }

  private:
    friend class Registry;
    Gauge() = default;
    std::atomic<double> value_{0.0};
};

/** Fixed-bucket latency/size distribution. Bucket upper bounds are fixed
 *  at registration; observe() is a linear bound scan plus two relaxed
 *  adds (bucket cell and sum cell) on the calling thread's shard. */
class Histogram
{
  public:
    void observe(std::uint64_t value);

    std::uint64_t count() const; ///< total observations across shards
    std::uint64_t sum() const;   ///< sum of observed values across shards

  private:
    friend class Registry;
    Histogram(std::size_t first_cell, std::vector<std::uint64_t> bounds)
        : firstCell_(first_cell), bounds_(std::move(bounds))
    {
    }
    std::size_t firstCell_; ///< buckets, then +Inf bucket, then sum
    std::vector<std::uint64_t> bounds_; ///< finite upper bounds (sorted)
};

/**
 * Intern a metric and return its process-lifetime handle. Re-registering
 * the same (name, labels) returns the same handle; registering it as a
 * different metric kind is a fatal error. @p labels is a raw Prometheus
 * label body (e.g. `worker="3"`), empty for none.
 */
Counter *counter(const char *name, const char *help = "",
                 const std::string &labels = "");
Gauge *gauge(const char *name, const char *help = "",
             const std::string &labels = "");
Histogram *histogram(const char *name,
                     const std::vector<std::uint64_t> &bounds,
                     const char *help = "", const std::string &labels = "");

/** Aggregated point-in-time view of every registered metric. */
struct CounterSample
{
    std::string name;
    std::string labels;
    std::string help;
    std::uint64_t value = 0;
};

struct GaugeSample
{
    std::string name;
    std::string labels;
    std::string help;
    double value = 0.0;
};

struct HistogramSample
{
    std::string name;
    std::string labels;
    std::string help;
    std::vector<std::uint64_t> bounds;       ///< finite upper bounds
    std::vector<std::uint64_t> bucketCounts; ///< per-bucket, +Inf last
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
};

struct Snapshot
{
    std::uint64_t timestampUs = 0; ///< nowUs() at snapshot time
    std::vector<CounterSample> counters;
    std::vector<GaugeSample> gauges;
    std::vector<HistogramSample> histograms;
};

Snapshot snapshot();

/**
 * Estimate the @p q quantile (0 < q <= 1) of a histogram sample by
 * linear interpolation inside the bucket that holds the target rank,
 * Prometheus histogram_quantile-style: the first bucket interpolates
 * from 0, and a rank that lands in the +Inf bucket clamps to the
 * highest finite bound (the estimate cannot exceed what was bucketed).
 * An empty histogram returns 0.
 */
double histogramQuantile(const HistogramSample &s, double q);

/** Zero every counter/histogram cell and gauge without unregistering
 *  anything (handles stay valid). Test-only: concurrent writers make the
 *  zeroing non-atomic. */
void zeroAllMetrics();

/**
 * Prometheus text exposition (format 0.0.4) of a snapshot: `# HELP` /
 * `# TYPE` per metric family, histogram `_bucket{le=...}` series
 * cumulative with a closing `+Inf`, `_sum`, `_count`, plus a derived
 * `<name>_quantile{quantile="0.5|0.9|0.99"}` gauge family estimated
 * with histogramQuantile. Metric names are sanitized (dots and other
 * invalid characters become underscores) and prefixed `coppelia_`.
 */
void writePrometheus(std::ostream &out, const Snapshot &snap);

/** The exposition name for a registered metric name (sanitize+prefix). */
std::string prometheusName(const std::string &name);

/** JSON document of a snapshot: `{"counters":{...},"gauges":{...},
 *  "histograms":{name:{count,sum,buckets:[[le,count],...],p50,p90,
 *  p99}}}` (quantiles estimated with histogramQuantile). Keys are the
 *  registered names with `{labels}` appended when present. */
json::Value snapshotJson(const Snapshot &snap);

/**
 * Per-thread search heartbeat: a long-running phase stores its name and
 * up to two progress values every iteration, and the scheduler watchdog
 * reads the slot to age-check progress (a structured stall warning fires
 * on a stale heartbeat). @p phase must be a string literal (or otherwise
 * process-lifetime). Lock-free on both sides.
 */
struct Heartbeat
{
    std::atomic<const char *> phase{nullptr};
    std::atomic<std::uint64_t> a{0};
    std::atomic<std::uint64_t> b{0};
    std::atomic<std::uint64_t> updatedUs{0};

    /** Relaxed stores into the slot; call from the owning thread. */
    void
    beat(const char *p, std::uint64_t va, std::uint64_t vb = 0)
    {
        phase.store(p, std::memory_order_relaxed);
        a.store(va, std::memory_order_relaxed);
        b.store(vb, std::memory_order_relaxed);
        updatedUs.store(nowUs(), std::memory_order_relaxed);
    }

    /** Forget the last beat (job boundary). */
    void
    clear()
    {
        phase.store(nullptr, std::memory_order_relaxed);
        a.store(0, std::memory_order_relaxed);
        b.store(0, std::memory_order_relaxed);
        updatedUs.store(0, std::memory_order_relaxed);
    }
};

/** The calling thread's heartbeat slot (created on first use, process
 *  lifetime — safe to hold across the thread's jobs). */
Heartbeat *threadHeartbeat();

/** Publish a heartbeat on the calling thread's slot. */
void heartbeat(const char *phase, std::uint64_t a, std::uint64_t b = 0);

} // namespace coppelia::metrics

#endif // COPPELIA_METRICS_METRICS_HH
