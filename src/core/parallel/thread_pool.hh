/**
 * @file
 * Host-parallel execution of simulated units (§6): persistent threads
 * running independent unit tasks (one HybridExplorer::run() each).
 *
 * Jobs are flat: only client threads call run(), and a task never
 * spawns another.  So the pool keeps one list of open jobs, oldest
 * first, under one mutex; a free worker claims the highest unclaimed
 * index of the oldest job.  The pool decides only *when* a task runs:
 * the engine merges per-unit tallies in unit order, so every
 * interleaving yields bit-identical counts, stats and traces.
 */

#ifndef KHUZDUL_CORE_PARALLEL_THREAD_POOL_HH
#define KHUZDUL_CORE_PARALLEL_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace khuzdul
{
namespace core
{

/** Pool of host threads executing the indexed tasks of jobs. */
class ThreadPool
{
  public:
    /** Spin up @p workers persistent threads (>= 1). */
    explicit ThreadPool(unsigned workers);

    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned
    workers() const
    {
        return static_cast<unsigned>(threads_.size());
    }

    /** Resolve a thread-count request: 0 means all hardware threads
     *  (SessionConfig::hostThreads convention).  Never returns 0. */
    static unsigned resolveThreadCount(unsigned requested);

    /**
     * Execute @p body(i) for every i in [0, num_tasks), highest index
     * first, and block until all complete (the barrier of one run).
     * If tasks throw, the lowest-indexed failure is rethrown,
     * whatever the execution order.
     *
     * Reentrant across client threads (QueryService sessions share
     * one pool): each call is a job queued behind the open ones, and
     * none of its tasks is claimed while an older job still has
     * unclaimed tasks.  Must NOT be called from a worker thread.
     */
    void run(std::size_t num_tasks,
             const std::function<void(std::size_t)> &body);

  private:
    /** One run() call in flight, on run()'s stack: run() returns
     *  only once remaining hits 0. */
    struct Job
    {
        const std::function<void(std::size_t)> *body = nullptr;
        std::vector<std::exception_ptr> errors; ///< per task index
        std::size_t unclaimed = 0; ///< tasks [0, unclaimed) unclaimed
        std::size_t remaining = 0; ///< tasks not yet finished
    };

    void workerLoop();
    bool isWorkerThread() const;

    /** Guards open_, stop_ and every job in flight. */
    std::mutex mutex_;
    std::condition_variable workAvailable_; ///< workers wait here
    std::condition_variable jobDone_;       ///< run() calls wait here

    std::deque<Job *> open_; ///< jobs with tasks to claim, oldest first
    bool stop_ = false;
    std::vector<std::thread> threads_; ///< after what the workers use
};

} // namespace core
} // namespace khuzdul

#endif // KHUZDUL_CORE_PARALLEL_THREAD_POOL_HH
