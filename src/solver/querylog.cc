#include "solver/querylog.hh"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

namespace coppelia::smt::querylog
{

const char *
resultName(int result)
{
    switch (result) {
      case 0: return "sat";
      case 1: return "unsat";
      case 2: return "unknown";
    }
    return "?";
}

json::Value
recordToJson(const Record &r)
{
    json::Value v = json::Value::object();
    v.set("q", json::Value::number(r.id));
    v.set("job", json::Value::number(r.job));
    v.set("iteration", json::Value::number(r.iteration));
    v.set("origin", json::Value::string(r.origin ? r.origin : ""));
    v.set("assumptions",
          json::Value::number(static_cast<std::uint64_t>(r.assumptions)));
    v.set("retry",
          json::Value::number(static_cast<std::uint64_t>(r.retry)));
    v.set("result", json::Value::string(resultName(r.result)));
    v.set("incremental", json::Value::boolean(r.incremental));
    v.set("conflicts", json::Value::number(r.conflicts));
    v.set("decisions", json::Value::number(r.decisions));
    v.set("propagations", json::Value::number(r.propagations));
    v.set("restarts", json::Value::number(r.restarts));
    v.set("learnt_lits_saved", json::Value::number(r.learntLitsSaved));
    v.set("wall_us", json::Value::number(r.wallUs));
    return v;
}

void
writeJsonl(std::ostream &out, const Drained &d)
{
    json::Value meta = json::Value::object();
    meta.set("meta", json::Value::string("querylog"));
    meta.set("schema_version",
             json::Value::number(kQuerylogSchemaVersion));
    meta.set("recorded", json::Value::number(d.recorded));
    meta.set("dropped", json::Value::number(d.dropped));
    meta.set("total_wall_us", json::Value::number(d.totalWallUs));
    out << meta.dump() << "\n";
    for (const Record &r : d.records)
        out << recordToJson(r).dump() << "\n";
}

namespace
{

/** Ring slots per thread. At ~130 bytes per record this is ~0.5 MiB per
 *  worker; deep searches overflow it, which is what the top-K retention
 *  and the meta line's dropped count are for. */
constexpr std::size_t kRingSize = 4096;
/** Slowest records retained per thread across ring overwrites. */
constexpr std::size_t kTopK = 32;
/** Process-wide slowest records (the monitor's live forensics view). */
constexpr std::size_t kGlobalTopK = 16;

/** Per-thread buffer: a ring plus a top-K by wall time. Written only by
 *  the owning thread; drained only by the owning thread. Allocated once
 *  at registration (the only allocation this subsystem ever does). */
struct Buffer
{
    std::vector<Record> ring = std::vector<Record>(kRingSize);
    std::size_t head = 0;         ///< next ring slot to write
    std::uint64_t recorded = 0;   ///< records since last drain
    std::uint64_t totalWallUs = 0;
    Record topk[kTopK];
    std::size_t topkCount = 0;
    std::uint64_t topkMinWall = 0; ///< min wall among retained top-K

    void
    push(const Record &r)
    {
        ring[head] = r;
        head = (head + 1) % kRingSize;
        ++recorded;
        totalWallUs += r.wallUs;
        if (topkCount < kTopK) {
            topk[topkCount++] = r;
            if (topkCount == kTopK)
                recomputeMin();
        } else if (r.wallUs > topkMinWall) {
            std::size_t min_i = 0;
            for (std::size_t i = 1; i < kTopK; ++i) {
                if (topk[i].wallUs < topk[min_i].wallUs)
                    min_i = i;
            }
            topk[min_i] = r;
            recomputeMin();
        }
    }

    void
    recomputeMin()
    {
        topkMinWall = ~std::uint64_t(0);
        for (std::size_t i = 0; i < topkCount; ++i)
            topkMinWall = std::min(topkMinWall, topk[i].wallUs);
    }
};

/** Global state: buffer ownership (buffers outlive their threads, like
 *  metrics shards) and the process-wide top-K. Leaked: worker threads
 *  may still hold buffer pointers during static destruction. */
struct Global
{
    std::mutex mu;
    std::vector<std::unique_ptr<Buffer>> buffers;
    Record slowest[kGlobalTopK];
    /** Written under mu; atomic because offerGlobal's fast path reads it
     *  without the mutex. */
    std::atomic<std::size_t> slowestCount{0};
    /** Fast-path admission threshold: once the top-K is full, a query
     *  slower than this takes the mutex and competes for a global slot;
     *  everything else skips the mutex. */
    std::atomic<std::uint64_t> slowestMinWall{0};
    std::atomic<std::uint64_t> nextId{1};
};

Global &
global()
{
    static Global *g = new Global();
    return *g;
}

Buffer &
threadBuffer()
{
    thread_local Buffer *buf = [] {
        Global &g = global();
        std::lock_guard<std::mutex> lock(g.mu);
        g.buffers.push_back(std::make_unique<Buffer>());
        return g.buffers.back().get();
    }();
    return *buf;
}

void
offerGlobal(const Record &r)
{
    Global &g = global();
    if (g.slowestCount == kGlobalTopK &&
        r.wallUs <= g.slowestMinWall.load(std::memory_order_relaxed))
        return;
    std::lock_guard<std::mutex> lock(g.mu);
    if (g.slowestCount < kGlobalTopK) {
        g.slowest[g.slowestCount++] = r;
    } else {
        std::size_t min_i = 0;
        for (std::size_t i = 1; i < kGlobalTopK; ++i) {
            if (g.slowest[i].wallUs < g.slowest[min_i].wallUs)
                min_i = i;
        }
        if (r.wallUs <= g.slowest[min_i].wallUs)
            return;
        g.slowest[min_i] = r;
    }
    std::uint64_t min_wall = ~std::uint64_t(0);
    for (std::size_t i = 0; i < g.slowestCount; ++i)
        min_wall = std::min(min_wall, g.slowest[i].wallUs);
    g.slowestMinWall.store(g.slowestCount == kGlobalTopK ? min_wall : 0,
                           std::memory_order_relaxed);
}

} // namespace

Context &
context()
{
    thread_local Context ctx;
    return ctx;
}

void
record(Record r)
{
    Global &g = global();
    r.id = g.nextId.fetch_add(1, std::memory_order_relaxed);
    const Context &ctx = context();
    r.job = ctx.job;
    r.iteration = ctx.iteration;
    r.origin = ctx.origin ? ctx.origin : "";
    r.retry = ctx.retry;
    threadBuffer().push(r);
    offerGlobal(r);
}

Drained
drainThread()
{
    Buffer &buf = threadBuffer();
    Drained out;
    out.recorded = buf.recorded;
    out.totalWallUs = buf.totalWallUs;

    const std::size_t live = buf.recorded < kRingSize
                                 ? static_cast<std::size_t>(buf.recorded)
                                 : kRingSize;
    out.records.reserve(live + buf.topkCount);
    // Oldest surviving ring entry first.
    const std::size_t start =
        buf.recorded < kRingSize ? 0 : buf.head;
    for (std::size_t i = 0; i < live; ++i)
        out.records.push_back(buf.ring[(start + i) % kRingSize]);
    // Top-K entries overwritten out of the ring re-enter here.
    const std::uint64_t oldest_live_id =
        live > 0 ? out.records.front().id : 0;
    for (std::size_t i = 0; i < buf.topkCount; ++i) {
        if (live == 0 || buf.topk[i].id < oldest_live_id)
            out.records.push_back(buf.topk[i]);
    }
    std::sort(out.records.begin(), out.records.end(),
              [](const Record &a, const Record &b) { return a.id < b.id; });
    out.dropped = out.recorded - out.records.size();

    buf.head = 0;
    buf.recorded = 0;
    buf.totalWallUs = 0;
    buf.topkCount = 0;
    buf.topkMinWall = 0;
    return out;
}

std::vector<Record>
globalSlowest()
{
    Global &g = global();
    std::lock_guard<std::mutex> lock(g.mu);
    std::vector<Record> out(g.slowest, g.slowest + g.slowestCount);
    std::sort(out.begin(), out.end(), [](const Record &a, const Record &b) {
        return a.wallUs > b.wallUs;
    });
    return out;
}

void
clearGlobalSlowest()
{
    Global &g = global();
    std::lock_guard<std::mutex> lock(g.mu);
    g.slowestCount = 0;
    g.slowestMinWall.store(0, std::memory_order_relaxed);
}

} // namespace coppelia::smt::querylog
