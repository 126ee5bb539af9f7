#include "campaign/scheduler.hh"

#include <algorithm>
#include <chrono>
#include <thread>

#include "trace/trace.hh"
#include "util/logging.hh"
#include "util/timer.hh"

namespace coppelia::campaign
{

namespace
{

/** How often the watchdog checks for stalls and refreshes the gauges. */
constexpr std::chrono::milliseconds kWatchdogPeriod{10};

/** Pool-wide live counters/gauges; interned once per process. */
struct SchedulerMetrics
{
    metrics::Counter *tasksCompleted = metrics::counter(
        "scheduler_tasks_completed", "tasks finished");
    metrics::Counter *stallWarnings = metrics::counter(
        "scheduler_stall_warnings",
        "stall warnings logged on stale task heartbeats");
    metrics::Gauge *queueDepth = metrics::gauge(
        "scheduler_queue_depth", "tasks not yet started");
};

SchedulerMetrics &
poolMetrics()
{
    static SchedulerMetrics m;
    return m;
}

/** A running task's last progress signal: its newest heartbeat, or the
 *  task start before any beat. */
std::uint64_t
lastProgressUs(std::uint64_t start_us, const metrics::Heartbeat *heartbeat)
{
    if (!heartbeat ||
        !heartbeat->phase.load(std::memory_order_relaxed))
        return start_us;
    return std::max(start_us,
                    heartbeat->updatedUs.load(std::memory_order_relaxed));
}

double
secondsSince(std::uint64_t then_us, std::uint64_t now_us)
{
    return now_us > then_us ? static_cast<double>(now_us - then_us) / 1e6
                            : 0.0;
}

} // namespace

Scheduler::Scheduler(SchedulerOptions opts) : opts_(opts)
{
    if (opts_.workers <= 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        opts_.workers = hw > 0 ? static_cast<int>(hw) : 1;
    }
}

int
Scheduler::add(Task task)
{
    const int id = static_cast<int>(tasks_.size());
    tasks_.push_back(std::move(task));
    return id;
}

void
Scheduler::runOne(int worker_id, int task_id)
{
    const Task &task = tasks_[static_cast<std::size_t>(task_id)];
    RunningSlot &slot = *running_[static_cast<std::size_t>(worker_id)];
    // This worker thread's heartbeat slot: the task publishes progress
    // into it (metrics::heartbeat), the watchdog age-checks it. Cleared
    // here so a previous job's beat never counts as this job's progress.
    metrics::Heartbeat *heartbeat = metrics::threadHeartbeat();
    heartbeat->clear();
    {
        std::lock_guard<std::mutex> lock(slot.mu);
        slot.taskId = task_id;
        slot.startUs = metrics::nowUs();
        slot.stallWarned = false;
        slot.heartbeat = heartbeat;
    }

    {
        trace::Span task_span("scheduler.task", "scheduler");
        task.fn(TaskContext{task_id, worker_id});
    }

    {
        std::lock_guard<std::mutex> lock(slot.mu);
        slot.taskId = -1;
        slot.heartbeat = nullptr;
    }
    poolMetrics().tasksCompleted->inc();
    pending_.fetch_sub(1, std::memory_order_acq_rel);
}

void
Scheduler::workerLoop(int worker_id)
{
    if (trace::enabled())
        trace::setThreadName("worker " + std::to_string(worker_id));
    trace::Span worker_span("scheduler.worker", "scheduler");
    // Each decrement claims one task, last-submitted first.
    for (int id = next_.fetch_sub(1) - 1; id >= 0; id = next_.fetch_sub(1) - 1)
        runOne(worker_id, id);
}

void
Scheduler::warnIfStalled(std::size_t worker, RunningSlot &slot,
                         std::uint64_t now_us)
{
    // One structured warning per task whose last progress signal is
    // stale: the tell that a search is wedged inside one solver call.
    if (slot.stallWarned || slot.taskId < 0)
        return;
    const double age =
        secondsSince(lastProgressUs(slot.startUs, slot.heartbeat), now_us);
    if (age < opts_.stallWarnSeconds)
        return;
    const char *phase =
        slot.heartbeat
            ? slot.heartbeat->phase.load(std::memory_order_relaxed)
            : nullptr;
    slot.stallWarned = true;
    poolMetrics().stallWarnings->inc();
    const Task &task = tasks_[static_cast<std::size_t>(slot.taskId)];
    warn("scheduler: job '", task.label, "' (task ", slot.taskId,
         ", worker ", worker, ") stalled: no progress for ",
         Timer::formatSeconds(age), " since phase '",
         phase ? phase : "start", "' (",
         Timer::formatSeconds(secondsSince(slot.startUs, now_us)),
         " in job)");
    trace::instant("scheduler.stall", "scheduler");
}

void
Scheduler::watchdogLoop()
{
    if (trace::enabled())
        trace::setThreadName("watchdog");
    while (!shutdown_.load(std::memory_order_acquire)) {
        if (opts_.stallWarnSeconds > 0.0) {
            const std::uint64_t now_us = metrics::nowUs();
            for (std::size_t w = 0; w < running_.size(); ++w) {
                RunningSlot &slot = *running_[w];
                std::lock_guard<std::mutex> lock(slot.mu);
                warnIfStalled(w, slot, now_us);
            }
        }
        updateWorkerMetrics();
        std::this_thread::sleep_for(kWatchdogPeriod);
    }
}

void
Scheduler::updateWorkerMetrics()
{
    poolMetrics().queueDepth->set(static_cast<double>(queuedTasks()));
    const std::uint64_t now_us = metrics::nowUs();
    for (std::size_t w = 0;
         w < running_.size() && w < workerGauges_.size(); ++w) {
        RunningSlot &slot = *running_[w];
        std::lock_guard<std::mutex> lock(slot.mu);
        const bool busy = slot.taskId >= 0;
        workerGauges_[w][0]->set(busy ? 1.0 : 0.0);
        workerGauges_[w][1]->set(busy ? slot.taskId : -1.0);
        workerGauges_[w][2]->set(busy ? secondsSince(slot.startUs, now_us)
                                      : 0.0);
    }
}

SchedulerReport
Scheduler::runAll()
{
    Timer timer;
    const int workers =
        std::min<int>(opts_.workers,
                      std::max<int>(1, static_cast<int>(tasks_.size())));
    report_ = SchedulerReport{};
    report_.workers = workers;
    report_.tasksSubmitted = static_cast<int>(tasks_.size());

    {
        // The monitor's accessors may race this rebuild; they take the
        // same structure lock.
        std::lock_guard<std::mutex> lock(structMu_);
        running_.clear();
        workerGauges_.clear();
        for (int i = 0; i < workers; ++i) {
            running_.push_back(std::make_unique<RunningSlot>());
            const std::string label =
                "worker=\"" + std::to_string(i) + "\"";
            workerGauges_.push_back(
                {metrics::gauge("scheduler_worker_busy",
                                "1 while the worker runs a task", label),
                 metrics::gauge("scheduler_worker_task",
                                "task id in the slot (-1 idle)", label),
                 metrics::gauge("scheduler_worker_seconds_in_job",
                                "seconds the current task has run",
                                label)});
        }
    }
    next_.store(static_cast<int>(tasks_.size()));
    pending_.store(static_cast<int>(tasks_.size()),
                   std::memory_order_release);
    shutdown_.store(false, std::memory_order_release);

    if (tasks_.empty()) {
        report_.wallSeconds = timer.seconds();
        return report_;
    }

    std::thread watchdog([this] { watchdogLoop(); });
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i)
        pool.emplace_back([this, i] { workerLoop(i); });
    for (std::thread &t : pool)
        t.join();
    shutdown_.store(true, std::memory_order_release);
    watchdog.join();

    report_.wallSeconds = timer.seconds();
    return report_;
}

std::size_t
Scheduler::queuedTasks() const
{
    return static_cast<std::size_t>(std::max(0, next_.load()));
}

int
Scheduler::pendingTasks() const
{
    return pending_.load(std::memory_order_acquire);
}

WorkerSnapshot
Scheduler::snapshotSlot(int worker, RunningSlot &slot) const
{
    WorkerSnapshot snap;
    snap.worker = worker;
    std::lock_guard<std::mutex> lock(slot.mu);
    if (slot.taskId < 0)
        return snap;
    snap.busy = true;
    snap.taskId = slot.taskId;
    // tasks_ is immutable while runAll() is live, so the label read
    // needs no extra lock.
    snap.label = tasks_[static_cast<std::size_t>(slot.taskId)].label;
    const std::uint64_t now_us = metrics::nowUs();
    snap.secondsInJob = secondsSince(slot.startUs, now_us);
    if (slot.heartbeat) {
        snap.phase =
            slot.heartbeat->phase.load(std::memory_order_relaxed);
        snap.heartbeatA =
            slot.heartbeat->a.load(std::memory_order_relaxed);
        snap.heartbeatB =
            slot.heartbeat->b.load(std::memory_order_relaxed);
    }
    snap.progressAgeSeconds = secondsSince(
        lastProgressUs(slot.startUs, slot.heartbeat), now_us);
    return snap;
}

std::vector<WorkerSnapshot>
Scheduler::workerSnapshots() const
{
    std::lock_guard<std::mutex> lock(structMu_);
    std::vector<WorkerSnapshot> out;
    out.reserve(running_.size());
    for (std::size_t w = 0; w < running_.size(); ++w)
        out.push_back(snapshotSlot(static_cast<int>(w), *running_[w]));
    return out;
}

} // namespace coppelia::campaign
