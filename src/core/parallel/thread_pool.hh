/**
 * @file
 * Host-parallel execution of simulated units (§5.4, §6).  The paper
 * saturates 16-32 cores per machine with dynamically dispatched
 * mini-batches; the reproduction models that machine exactly but —
 * before this pool existed — executed every simulated unit
 * back-to-back on one host core.  ThreadPool is the host-side
 * counterpart: a work-stealing pool that runs independent unit
 * tasks (one HybridExplorer::run() each) concurrently.
 *
 * Scheduling is aDFS-style: every worker owns a deque, seeded
 * round-robin; owners pop LIFO from the back (cache-warm), thieves
 * steal FIFO from the front (oldest, largest remaining work).  The
 * pool only decides *when* a task runs, never what it computes —
 * determinism of modeled results is the engine's job (per-unit
 * delta ledgers merged in unit order), so any interleaving the
 * pool produces yields bit-identical counts, stats and traces.
 *
 * Since the QueryService landed, run() is also reentrant across
 * dispatcher threads: concurrent calls are independent jobs whose
 * tasks share the worker deques, which is how N concurrent query
 * sessions interleave fairly on one pool (see run()).
 */

#ifndef KHUZDUL_CORE_PARALLEL_THREAD_POOL_HH
#define KHUZDUL_CORE_PARALLEL_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace khuzdul
{
namespace core
{

/** Work-stealing pool of host threads executing indexed tasks. */
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

    /**
     * Resolve a configured thread-count request: 0 means "all
     * hardware threads" (SessionConfig::hostThreads convention);
     * anything else passes through.  Never returns 0.
     */
    static unsigned resolveThreadCount(unsigned requested);

    /**
     * Execute @p body(i) for every i in [0, num_tasks) and block
     * until all complete (the barrier of one run).  Tasks are
     * seeded round-robin across worker deques and stolen as
     * workers drain.  If tasks throw, the exception of the
     * lowest-indexed failing task is rethrown (deterministic
     * regardless of execution order).
     *
     * Reentrant across *threads*: any number of dispatcher threads
     * may have run() calls in flight on one pool — each call is an
     * independent job whose tasks interleave with the others' at
     * task granularity (concurrent jobs seed from rotated home
     * queues, so no job monopolizes the workers; this is the
     * QueryService's fair unit-level interleaving).  Must NOT be
     * called from one of the pool's own worker threads.
     */
    void run(std::size_t num_tasks,
             const std::function<void(std::size_t)> &body);

  private:
    /**
     * One run() call in flight: its body, per-task errors and
     * completion count.  Stack-allocated inside run(), which
     * outlives every queued Task pointing at it (run() returns only
     * when remaining hits 0).
     */
    struct Job
    {
        const std::function<void(std::size_t)> *body = nullptr;
        std::vector<std::exception_ptr> errors; ///< per task index
        std::size_t remaining = 0; ///< tasks not yet finished
    };

    /** One schedulable unit: a task index of one job. */
    struct Task
    {
        Job *job = nullptr;
        std::size_t index = 0;
    };

    /** One worker's task deque (own end = back, steal end = front). */
    struct WorkerQueue
    {
        std::mutex mutex;
        std::deque<Task> tasks;
    };

    void workerLoop(unsigned self);
    bool popOwn(unsigned self, Task &task);
    bool stealFrom(unsigned thief, Task &task);
    void execute(const Task &task);
    bool isWorkerThread() const;

    std::vector<std::unique_ptr<WorkerQueue>> queues_;
    std::vector<std::thread> threads_;

    /** Guards the shared state below and the cv predicates. */
    std::mutex controlMutex_;
    std::condition_variable workAvailable_; ///< workers wait here
    std::condition_variable jobDone_;       ///< run() calls wait here

    std::size_t queued_ = 0; ///< tasks sitting in deques (all jobs)
    unsigned seedStart_ = 0; ///< rotating home queue of the next job
    bool stop_ = false;
};

} // namespace core
} // namespace khuzdul

#endif // KHUZDUL_CORE_PARALLEL_THREAD_POOL_HH
