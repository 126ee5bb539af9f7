/**
 * @file
 * Worker thread pool for a fixed list of independent tasks. The
 * scheduler is generic — tasks are closures — so its policy (start
 * order, stall warnings) is testable with synthetic workloads
 * independently of the exploit-generation jobs the campaign layer
 * submits. Every submitted task runs exactly once.
 *
 * Execution model:
 *  - One atomic cursor counts the tasks not yet started. A free worker
 *    decrements it and runs the task it lands on, so tasks start
 *    last-submitted first: one worker runs them in reverse submission
 *    order. No task adds work, so a worker that finds the cursor spent
 *    exits.
 *  - The pool never stops a task: each one bounds itself (the campaign's
 *    jobs stop on their own time limits). A watchdog thread keeps the
 *    per-worker gauges current and logs one structured warning for a
 *    running task whose last progress signal (its metrics heartbeat, or
 *    the task start) is older than the stall threshold.
 */

#ifndef COPPELIA_CAMPAIGN_SCHEDULER_HH
#define COPPELIA_CAMPAIGN_SCHEDULER_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "metrics/metrics.hh"

namespace coppelia::campaign
{

/** Per-invocation context handed to a task. */
struct TaskContext
{
    int taskId = 0;   ///< submission index
    int workerId = 0; ///< executing worker
};

/** One schedulable unit. */
struct Task
{
    std::function<void(const TaskContext &)> fn;
    std::string label;
};

/** Pool configuration. */
struct SchedulerOptions
{
    /** Worker threads; 0 = hardware concurrency (at least 1). */
    int workers = 0;
    /** Log a structured stall warning when a running task's last
     *  progress signal (its metrics heartbeat, or the task start) is
     *  older than this. 0 disables stall detection. */
    double stallWarnSeconds = 0.0;
};

/** Aggregate accounting for one runAll(). */
struct SchedulerReport
{
    int workers = 0;
    int tasksSubmitted = 0;
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

    /** Execute everything; blocks until every task has returned. */
    SchedulerReport runAll();

    /** Tasks not yet started. Safe to call from any thread while
     *  runAll() is live. */
    std::size_t queuedTasks() const;

    /** Tasks not yet finished (queued + running). */
    int pendingTasks() const;

    /** One snapshot per worker slot; safe concurrently with runAll(). */
    std::vector<WorkerSnapshot> workerSnapshots() const;

  private:
    struct RunningSlot
    {
        std::mutex mu;
        int taskId = -1; ///< task in the slot; -1 while the worker idles
        std::uint64_t startUs = 0; ///< metrics::nowUs() at task start
        bool stallWarned = false;
        /** The worker thread's heartbeat slot (tasks publish progress
         *  through metrics::heartbeat); owned by the metrics registry. */
        metrics::Heartbeat *heartbeat = nullptr;
    };

    void workerLoop(int worker_id);
    void watchdogLoop();
    void warnIfStalled(std::size_t worker, RunningSlot &slot,
                       std::uint64_t now_us);
    void updateWorkerMetrics();
    void runOne(int worker_id, int task_id);
    WorkerSnapshot snapshotSlot(int worker, RunningSlot &slot) const;

    SchedulerOptions opts_;
    std::vector<Task> tasks_;

    std::vector<std::unique_ptr<RunningSlot>> running_;
    /** Tasks not yet started: the next worker to decrement it runs task
     *  `next_ - 1`. Goes negative once every task has started. */
    std::atomic<int> next_{0};
    std::atomic<int> pending_{0}; ///< tasks not yet finished
    std::atomic<bool> shutdown_{false};

    /** Guards the running_ vector itself (rebuilt at the top of runAll)
     *  against the monitor's concurrent accessors; the per-slot mutexes
     *  still guard their contents. */
    mutable std::mutex structMu_;
    /** Per-worker live gauges (busy, task id, seconds in job), indexed
     *  by worker; registered on first runAll() with that worker count. */
    std::vector<std::array<metrics::Gauge *, 3>> workerGauges_;

    SchedulerReport report_;
};

} // namespace coppelia::campaign

#endif // COPPELIA_CAMPAIGN_SCHEDULER_HH
