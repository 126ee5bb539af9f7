/**
 * @file
 * Worker thread pool with a work-stealing queue, per-task cancellation
 * tokens and timeout enforcement. The scheduler is generic — tasks are
 * closures — so the policy machinery (stealing, watchdog, stall
 * warnings) is testable with synthetic workloads independently of the
 * exploit-generation jobs the campaign layer submits. Every submitted
 * task runs exactly once.
 *
 * Execution model:
 *  - Each worker owns a deque. Tasks are dealt round-robin; a worker
 *    pops from the back of its own deque and, when empty, steals from
 *    the front of the busiest victim's deque. Nothing is queued after
 *    the deal, so a worker that finds its own deque and every victim's
 *    empty exits.
 *  - Every running task gets a CancelToken. A watchdog thread scans the
 *    running set and cancels tasks past their deadline. The token only
 *    stops a task that polls it: of the campaign's jobs, fuzz jobs poll
 *    it per execution and between hand-offs, while exploit and BMC jobs
 *    stop on their own wall-clock limit and are labelled cancelled after
 *    they return.
 */

#ifndef COPPELIA_CAMPAIGN_SCHEDULER_HH
#define COPPELIA_CAMPAIGN_SCHEDULER_HH

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "metrics/metrics.hh"

namespace coppelia::campaign
{

/** Cancellation flag shared between a task and the watchdog. */
class CancelToken
{
  public:
    void cancel() { cancelled_.store(true, std::memory_order_relaxed); }
    bool
    cancelled() const
    {
        return cancelled_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<bool> cancelled_{false};
};

/** Per-invocation context handed to a task. */
struct TaskContext
{
    int taskId = 0;   ///< submission index
    int workerId = 0; ///< executing worker
    const CancelToken *cancel = nullptr;

    bool cancelled() const { return cancel && cancel->cancelled(); }
};

/** One schedulable unit. */
struct Task
{
    std::function<void(const TaskContext &)> fn;
    /** Wall-clock budget; 0 disables the watchdog for it. */
    double timeoutSeconds = 0.0;
    std::string label;
};

/** Pool configuration. */
struct SchedulerOptions
{
    /** Worker threads; 0 = hardware concurrency (at least 1). */
    int workers = 0;
    /** Watchdog scan period. */
    double watchdogPeriodSeconds = 0.01;
    /** Log a structured stall warning when a running task's last
     *  progress signal (its metrics heartbeat, or the task start) is
     *  older than this — an early tell, well before the watchdog
     *  deadline kill. 0 disables stall detection. */
    double stallWarnSeconds = 0.0;
};

/** Aggregate accounting for one runAll(). */
struct SchedulerReport
{
    int workers = 0;
    int tasksSubmitted = 0;
    int timeouts = 0; ///< tasks cancelled by the watchdog
    int steals = 0;   ///< tasks executed by a worker that stole them
    double wallSeconds = 0.0;
};

/** Live view of one worker, for the campaign monitor's /status. */
struct WorkerSnapshot
{
    int worker = 0;
    bool busy = false;
    int taskId = -1;
    std::string label;
    double secondsInJob = 0.0;
    /** Latest heartbeat from the task (nullptr phase = none yet). */
    const char *phase = nullptr;
    std::uint64_t heartbeatA = 0;
    std::uint64_t heartbeatB = 0;
    /** Seconds since the last progress signal (heartbeat or start). */
    double progressAgeSeconds = 0.0;
};

/**
 * The pool. Usage: construct, add() tasks, runAll() once. The scheduler
 * owns no task results — closures capture their own output channel (the
 * campaign layer passes a thread-safe ResultStore).
 */
class Scheduler
{
  public:
    explicit Scheduler(SchedulerOptions opts = {});

    /** Submit a task; only valid before runAll(). @return task id. */
    int add(Task task);

    /** Execute everything; blocks until the queue drains. */
    SchedulerReport runAll();

    /** Tasks sitting in worker deques right now (excludes running ones).
     *  Safe to call from any thread while runAll() is live. */
    std::size_t queuedTasks() const;

    /** Tasks not yet finished (queued + running). */
    int pendingTasks() const;

    /** One snapshot per worker slot; safe concurrently with runAll(). */
    std::vector<WorkerSnapshot> workerSnapshots() const;

  private:
    struct QueuedTask
    {
        int id;
        int homeWorker; ///< deque the task was dealt to
    };

    struct WorkerQueue
    {
        std::mutex mu;
        std::deque<QueuedTask> q;
    };

    struct RunningSlot
    {
        std::mutex mu;
        CancelToken *token = nullptr;
        std::chrono::steady_clock::time_point deadline;
        bool hasDeadline = false;
        bool timedOut = false;
        // Live-monitoring state for the task currently in the slot.
        int taskId = -1;
        std::uint64_t startUs = 0; ///< metrics::nowUs() at task start
        bool stallWarned = false;
        /** The worker thread's heartbeat slot (tasks publish progress
         *  through metrics::heartbeat); owned by the metrics registry. */
        metrics::Heartbeat *heartbeat = nullptr;
    };

    void workerLoop(int worker_id);
    void watchdogLoop();
    void updateWorkerMetrics();
    bool popLocal(int worker_id, QueuedTask *out);
    bool steal(int thief_id, QueuedTask *out);
    void runOne(int worker_id, QueuedTask task);
    WorkerSnapshot snapshotSlot(int worker, RunningSlot &slot) const;

    SchedulerOptions opts_;
    std::vector<Task> tasks_;

    std::vector<std::unique_ptr<WorkerQueue>> queues_;
    std::vector<std::unique_ptr<RunningSlot>> running_;
    std::atomic<int> pending_{0}; ///< tasks not yet finished
    std::atomic<bool> shutdown_{false};

    /** Guards the queues_/running_ vectors themselves (rebuilt at the
     *  top of runAll) against the monitor's concurrent accessors; the
     *  per-queue/per-slot mutexes still guard their contents. */
    mutable std::mutex structMu_;
    /** Per-worker live gauges (busy, task id, seconds in job), indexed
     *  by worker; registered on first runAll() with that worker count. */
    std::vector<std::array<metrics::Gauge *, 3>> workerGauges_;

    std::mutex reportMu_;
    SchedulerReport report_;
};

} // namespace coppelia::campaign

#endif // COPPELIA_CAMPAIGN_SCHEDULER_HH
