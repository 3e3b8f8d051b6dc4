/**
 * @file
 * Worker pool and thread-pooled runner for independent simulation jobs.
 *
 * Simulation points are embarrassingly parallel: every point owns its
 * Stonne instance (and therefore its StatsRegistry, watchdog and RNG
 * streams), the SimContext error scopes are thread-local, and logging
 * keeps no mutable global state — so points can run concurrently with
 * no sharing at all.
 *
 * Two layers live here:
 *
 *  - WorkerPool: persistent threads draining a FIFO task queue. Tasks
 *    are fire-and-forget closures; a task that throws never takes its
 *    worker down (the pool catches everything, counts the failure and
 *    keeps serving). The simulation service (src/service) runs its job
 *    envelopes on one of these for the lifetime of the daemon.
 *
 *  - SweepRunner: the batch façade the benchmarks and the design-space
 *    explorer use. It executes a list of closures over a temporary
 *    pool, preserves submission order in the results, and rethrows the
 *    first failure (lowest job index) after the pool drains.
 *
 * Lives in the library (not bench/) because the design-space explorer
 * (src/explore) evaluates its top-K mapping candidates over the same pool
 * the benchmark sweeps use.
 */

#ifndef STONNE_COMMON_SWEEP_POOL_HPP
#define STONNE_COMMON_SWEEP_POOL_HPP

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace stonne {

/**
 * Fixed set of persistent worker threads over a FIFO task queue.
 *
 * Exception safety is the contract: a submitted task that throws —
 * anything, std::exception or not — is caught at the worker loop,
 * counted in tasksFailed(), and the worker moves on to the next task.
 * Callers that need the error must capture it inside their closure
 * (see SweepRunner::run); the pool-level catch is the last line of
 * defense that keeps a long-running daemon alive.
 */
class WorkerPool
{
  public:
    /**
     * @param threads pool size; 0 picks the hardware concurrency
     *        (at least 1).
     * @param start_workers spawn the threads immediately; pass false
     *        and call start() later to stage tasks while the pool is
     *        paused (admission tests rely on this).
     */
    explicit WorkerPool(std::size_t threads = 0, bool start_workers = true);

    /** Drains the queue and joins the workers (shutdown()). */
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    std::size_t threadCount() const { return thread_count_; }

    /** Spawn the worker threads; no-op if already started. */
    void start();

    /**
     * Enqueue a task. Throws std::runtime_error if the pool has been
     * shut down.
     */
    void submit(std::function<void()> task);

    /** Tasks queued and not yet claimed by a worker. */
    std::size_t pending() const;

    /** Tasks currently executing on a worker. */
    std::size_t running() const;

    /** Block until the queue is empty and no task is executing. */
    void drain();

    /**
     * Stop accepting work, run everything already queued, join the
     * workers. Idempotent; called by the destructor.
     */
    void shutdown();

    /** Tasks completed (including failed ones). */
    std::uint64_t tasksRun() const;

    /** Tasks that terminated by throwing. */
    std::uint64_t tasksFailed() const;

  private:
    void workerLoop();

    mutable std::mutex mu_;
    std::condition_variable work_cv_; //!< workers: queue non-empty/stop
    std::condition_variable idle_cv_; //!< drain(): queue empty & idle
    std::deque<std::function<void()>> queue_;
    std::vector<std::thread> workers_;
    std::size_t thread_count_;
    std::size_t running_ = 0;
    std::uint64_t tasks_run_ = 0;
    std::uint64_t tasks_failed_ = 0;
    bool started_ = false;
    bool stopping_ = false;
};

/** Batch runner executing independent simulation points over a pool. */
class SweepRunner
{
  public:
    /**
     * @param threads pool size; 0 picks the hardware concurrency
     *        (at least 1).
     */
    explicit SweepRunner(std::size_t threads = 0);

    std::size_t threadCount() const { return threads_; }

    /**
     * Run every job over the pool and block until all complete. Jobs
     * are claimed in submission order; a job that throws does not stop
     * the others, and the first exception (lowest job index) is
     * rethrown once the pool has drained.
     */
    void run(const std::vector<std::function<void()>> &jobs) const;

  private:
    std::size_t threads_;
};

} // namespace stonne

#endif // STONNE_COMMON_SWEEP_POOL_HPP
