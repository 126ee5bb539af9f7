#include "campaign/scheduler.hh"

#include "trace/trace.hh"
#include "util/logging.hh"
#include "util/timer.hh"

namespace coppelia::campaign
{

using Clock = std::chrono::steady_clock;

namespace
{

/** Pool-wide live counters/gauges; interned once per process. */
struct SchedulerMetrics
{
    metrics::Counter *tasksCompleted = metrics::counter(
        "scheduler_tasks_completed", "tasks finished");
    metrics::Counter *timeouts = metrics::counter(
        "scheduler_timeouts", "tasks cancelled by the watchdog");
    metrics::Counter *stallWarnings = metrics::counter(
        "scheduler_stall_warnings",
        "stall warnings logged on stale task heartbeats");
    metrics::Gauge *queueDepth = metrics::gauge(
        "scheduler_queue_depth", "tasks waiting in worker deques");
};

SchedulerMetrics &
poolMetrics()
{
    static SchedulerMetrics m;
    return m;
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

bool
Scheduler::popLocal(int worker_id, QueuedTask *out)
{
    WorkerQueue &wq = *queues_[static_cast<std::size_t>(worker_id)];
    std::lock_guard<std::mutex> lock(wq.mu);
    if (wq.q.empty())
        return false;
    *out = wq.q.back();
    wq.q.pop_back();
    return true;
}

bool
Scheduler::steal(int thief_id, QueuedTask *out)
{
    // Steal from the front of the longest victim queue (oldest task of
    // the most loaded worker) to keep the load spread. A victim drained
    // between the scan and the pop sends the thief back to the scan;
    // nothing is queued after the deal, so false means every other deque
    // is empty for good.
    const int n = static_cast<int>(queues_.size());
    while (true) {
        int victim = -1;
        std::size_t best = 0;
        for (int i = 0; i < n; ++i) {
            if (i == thief_id)
                continue;
            WorkerQueue &wq = *queues_[static_cast<std::size_t>(i)];
            std::lock_guard<std::mutex> lock(wq.mu);
            if (wq.q.size() > best) {
                best = wq.q.size();
                victim = i;
            }
        }
        if (victim < 0)
            return false;
        WorkerQueue &wq = *queues_[static_cast<std::size_t>(victim)];
        std::lock_guard<std::mutex> lock(wq.mu);
        if (wq.q.empty())
            continue;
        *out = wq.q.front();
        wq.q.pop_front();
        return true;
    }
}

void
Scheduler::runOne(int worker_id, QueuedTask qt)
{
    const Task &task = tasks_[static_cast<std::size_t>(qt.id)];
    RunningSlot &slot = *running_[static_cast<std::size_t>(worker_id)];
    CancelToken token;
    // This worker thread's heartbeat slot: the task publishes progress
    // into it (metrics::heartbeat), the watchdog age-checks it. Cleared
    // here so a previous job's beat never counts as this job's progress.
    metrics::Heartbeat *heartbeat = metrics::threadHeartbeat();
    heartbeat->clear();
    {
        std::lock_guard<std::mutex> lock(slot.mu);
        slot.token = &token;
        slot.timedOut = false;
        slot.taskId = qt.id;
        slot.startUs = metrics::nowUs();
        slot.stallWarned = false;
        slot.heartbeat = heartbeat;
        slot.hasDeadline = task.timeoutSeconds > 0.0;
        if (slot.hasDeadline) {
            slot.deadline =
                Clock::now() +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(task.timeoutSeconds));
        }
    }

    TaskContext ctx;
    ctx.taskId = qt.id;
    ctx.workerId = worker_id;
    ctx.cancel = &token;
    {
        trace::Span task_span("scheduler.task", "scheduler");
        if (trace::enabled() && worker_id != qt.homeWorker)
            trace::instant("scheduler.steal", "scheduler");
        task.fn(ctx);
    }

    bool timed_out;
    double elapsed;
    {
        std::lock_guard<std::mutex> lock(slot.mu);
        slot.token = nullptr;
        slot.hasDeadline = false;
        timed_out = slot.timedOut;
        elapsed = static_cast<double>(metrics::nowUs() - slot.startUs) /
                  1e6;
        slot.taskId = -1;
        slot.heartbeat = nullptr;
    }

    {
        std::lock_guard<std::mutex> lock(reportMu_);
        if (timed_out)
            ++report_.timeouts;
        if (worker_id != qt.homeWorker)
            ++report_.steals;
    }
    if (timed_out) {
        poolMetrics().timeouts->inc();
        warn("scheduler: job '", task.label, "' (task ", qt.id,
             ", worker ", worker_id, ") killed by watchdog after ",
             Timer::formatSeconds(elapsed));
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
    QueuedTask qt{};
    while (popLocal(worker_id, &qt) || steal(worker_id, &qt))
        runOne(worker_id, qt);
}

void
Scheduler::watchdogLoop()
{
    if (trace::enabled())
        trace::setThreadName("watchdog");
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(opts_.watchdogPeriodSeconds));
    while (!shutdown_.load(std::memory_order_acquire)) {
        const auto now = Clock::now();
        const std::uint64_t now_us = metrics::nowUs();
        for (std::size_t w = 0; w < running_.size(); ++w) {
            RunningSlot &slot = *running_[w];
            std::lock_guard<std::mutex> lock(slot.mu);
            if (!slot.token)
                continue;
            if (slot.hasDeadline && !slot.timedOut &&
                now >= slot.deadline) {
                slot.token->cancel();
                slot.timedOut = true;
                trace::instant("scheduler.timeout", "scheduler");
            }
            // Stall detection: the task's last progress signal is its
            // newest heartbeat, or the task start before any beat. A
            // stale signal gets one structured warning per task —
            // the early tell that a search is wedged inside one solver
            // call, long before the deadline kill above fires.
            if (opts_.stallWarnSeconds > 0.0 && !slot.stallWarned &&
                !slot.timedOut && slot.taskId >= 0) {
                std::uint64_t last = slot.startUs;
                const char *phase = "start";
                if (slot.heartbeat) {
                    const std::uint64_t beat_us = slot.heartbeat
                        ->updatedUs.load(std::memory_order_relaxed);
                    const char *beat_phase = slot.heartbeat->phase.load(
                        std::memory_order_relaxed);
                    if (beat_phase && beat_us > last) {
                        last = beat_us;
                        phase = beat_phase;
                    }
                }
                const double age =
                    now_us > last
                        ? static_cast<double>(now_us - last) / 1e6
                        : 0.0;
                if (age >= opts_.stallWarnSeconds) {
                    slot.stallWarned = true;
                    poolMetrics().stallWarnings->inc();
                    const Task &task =
                        tasks_[static_cast<std::size_t>(slot.taskId)];
                    warn("scheduler: job '", task.label, "' (task ",
                         slot.taskId, ", worker ", w,
                         ") stalled: no progress for ",
                         Timer::formatSeconds(age), " since phase '",
                         phase, "' (",
                         Timer::formatSeconds(
                             static_cast<double>(now_us - slot.startUs) /
                             1e6),
                         " in job)");
                    trace::instant("scheduler.stall", "scheduler");
                }
            }
        }
        updateWorkerMetrics();
        std::this_thread::sleep_for(period);
    }
}

void
Scheduler::updateWorkerMetrics()
{
    poolMetrics().queueDepth->set(
        static_cast<double>(queuedTasks()));
    const std::uint64_t now_us = metrics::nowUs();
    for (std::size_t w = 0;
         w < running_.size() && w < workerGauges_.size(); ++w) {
        RunningSlot &slot = *running_[w];
        std::lock_guard<std::mutex> lock(slot.mu);
        const bool busy = slot.token != nullptr;
        workerGauges_[w][0]->set(busy ? 1.0 : 0.0);
        workerGauges_[w][1]->set(busy ? slot.taskId : -1.0);
        workerGauges_[w][2]->set(
            busy ? static_cast<double>(now_us - slot.startUs) / 1e6
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
        queues_.clear();
        running_.clear();
        workerGauges_.clear();
        for (int i = 0; i < workers; ++i) {
            queues_.push_back(std::make_unique<WorkerQueue>());
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

        // Deal the matrix round-robin.
        for (std::size_t i = 0; i < tasks_.size(); ++i) {
            const std::size_t home = i % static_cast<std::size_t>(workers);
            queues_[home]->q.push_back(
                QueuedTask{static_cast<int>(i), static_cast<int>(home)});
        }
    }
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
    std::lock_guard<std::mutex> lock(structMu_);
    std::size_t total = 0;
    for (const auto &wq : queues_) {
        std::lock_guard<std::mutex> qlock(wq->mu);
        total += wq->q.size();
    }
    return total;
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
    if (!slot.token || slot.taskId < 0)
        return snap;
    snap.busy = true;
    snap.taskId = slot.taskId;
    // tasks_ is immutable while runAll() is live, so the label read
    // needs no extra lock.
    snap.label = tasks_[static_cast<std::size_t>(slot.taskId)].label;
    const std::uint64_t now_us = metrics::nowUs();
    snap.secondsInJob =
        static_cast<double>(now_us - slot.startUs) / 1e6;
    std::uint64_t last = slot.startUs;
    if (slot.heartbeat) {
        snap.phase =
            slot.heartbeat->phase.load(std::memory_order_relaxed);
        snap.heartbeatA =
            slot.heartbeat->a.load(std::memory_order_relaxed);
        snap.heartbeatB =
            slot.heartbeat->b.load(std::memory_order_relaxed);
        const std::uint64_t beat_us =
            slot.heartbeat->updatedUs.load(std::memory_order_relaxed);
        if (snap.phase && beat_us > last)
            last = beat_us;
    }
    snap.progressAgeSeconds =
        now_us > last ? static_cast<double>(now_us - last) / 1e6 : 0.0;
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
