#include "core/parallel/thread_pool.hh"

#include <algorithm>

#include "support/check.hh"

namespace khuzdul
{
namespace core
{

ThreadPool::ThreadPool(unsigned workers)
{
    KHUZDUL_REQUIRE(workers >= 1, "thread pool needs >= 1 worker");
    threads_.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        threads_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    workAvailable_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

unsigned
ThreadPool::resolveThreadCount(unsigned requested)
{
    if (requested != 0)
        return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

bool
ThreadPool::isWorkerThread() const
{
    const std::thread::id self = std::this_thread::get_id();
    return std::any_of(threads_.begin(), threads_.end(),
                       [self](const std::thread &t) {
                           return t.get_id() == self;
                       });
}

void
ThreadPool::run(std::size_t num_tasks,
                const std::function<void(std::size_t)> &body)
{
    if (num_tasks == 0)
        return;
    // A worker blocking in run() would wait on tasks only its own
    // loop (or siblings already saturated by it) could drain.
    KHUZDUL_CHECK(!isWorkerThread(),
                  "ThreadPool::run called from a pool worker thread");

    Job job{&body, std::vector<std::exception_ptr>(num_tasks),
            num_tasks, num_tasks};
    {
        std::unique_lock<std::mutex> lock(mutex_);
        open_.push_back(&job);
        workAvailable_.notify_all();
        jobDone_.wait(lock, [&job] { return job.remaining == 0; });
    }
    // Rethrow the lowest-indexed failure so the surfaced error does
    // not depend on the interleaving.
    for (std::exception_ptr &error : job.errors)
        if (error)
            std::rethrow_exception(error);
}

void
ThreadPool::workerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
        workAvailable_.wait(
            lock, [this] { return stop_ || !open_.empty(); });
        if (stop_)
            return;
        Job &job = *open_.front();
        const std::size_t index = --job.unclaimed;
        if (job.unclaimed == 0)
            open_.pop_front();
        lock.unlock();
        std::exception_ptr error;
        try {
            (*job.body)(index);
        } catch (...) {
            error = std::current_exception();
        }
        lock.lock();
        job.errors[index] = error;
        // run() can return, and the job die, once the lock drops.
        if (--job.remaining == 0)
            jobDone_.notify_all();
    }
}

} // namespace core
} // namespace khuzdul
