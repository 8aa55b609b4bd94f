/**
 * @file
 * Unit tests of the host thread pool: completion of every task, reuse
 * across runs, oversubscription (more tasks than workers), the claim
 * order (highest index first, oldest job first), deterministic
 * exception surfacing, and the 0-means-all thread-count resolution
 * convention.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/parallel/thread_pool.hh"

namespace khuzdul
{
namespace
{

TEST(ThreadPool, ExecutesEveryTaskExactlyOnce)
{
    core::ThreadPool pool(4);
    constexpr std::size_t kTasks = 128;
    std::vector<std::atomic<int>> hits(kTasks);
    pool.run(kTasks, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < kTasks; ++i)
        EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ReusableAcrossRuns)
{
    core::ThreadPool pool(3);
    std::vector<int> out(10, 0);
    for (int round = 1; round <= 4; ++round)
        pool.run(out.size(),
                 [&](std::size_t i) { out[i] = round; });
    for (const int v : out)
        EXPECT_EQ(v, 4);
    pool.run(0, [](std::size_t) { FAIL() << "no tasks to run"; });
}

TEST(ThreadPool, MoreWorkersThanTasks)
{
    core::ThreadPool pool(8);
    std::atomic<int> sum{0};
    pool.run(3, [&](std::size_t i) {
        sum += static_cast<int>(i) + 1;
    });
    EXPECT_EQ(sum.load(), 6);
}

TEST(ThreadPool, SingleWorkerCompletesEveryTask)
{
    // Completeness alone; SingleJobClaimsHighestIndexFirst pins the
    // order.
    core::ThreadPool pool(1);
    std::vector<std::size_t> ran;
    pool.run(6, [&](std::size_t i) { ran.push_back(i); });
    std::sort(ran.begin(), ran.end());
    std::vector<std::size_t> expected(6);
    std::iota(expected.begin(), expected.end(), 0u);
    EXPECT_EQ(ran, expected);
}

TEST(ThreadPool, SingleJobClaimsHighestIndexFirst)
{
    core::ThreadPool pool(1);
    std::vector<std::size_t> ran;
    pool.run(6, [&](std::size_t i) { ran.push_back(i); });
    EXPECT_EQ(ran, (std::vector<std::size_t>{5, 4, 3, 2, 1, 0}));
}

TEST(ThreadPool, OlderJobsTasksAreClaimedFirst)
{
    // Job A's first task blocks until client B has called run() and
    // had ample time to enqueue job B.  B's tasks must still wait for
    // A's unclaimed ones: the order holds for any timing, since B can
    // only join the list behind A.
    core::ThreadPool pool(1);
    // (job, task) pairs, written by the one worker.
    std::vector<std::pair<char, std::size_t>> order;
    std::promise<void> a_started;
    std::promise<void> b_calling;
    std::future<void> a_started_seen = a_started.get_future();
    std::future<void> b_calling_seen = b_calling.get_future();
    std::thread client_b([&] {
        a_started_seen.wait();
        b_calling.set_value();
        pool.run(2, [&order](std::size_t i) {
            order.emplace_back('B', i);
        });
    });
    bool first = true;
    pool.run(3, [&](std::size_t i) {
        if (first) {
            first = false;
            a_started.set_value();
            b_calling_seen.wait();
            std::this_thread::sleep_for(
                std::chrono::milliseconds(200));
        }
        order.emplace_back('A', i);
    });
    client_b.join();
    const std::vector<std::pair<char, std::size_t>> expected = {
        {'A', 2}, {'A', 1}, {'A', 0}, {'B', 1}, {'B', 0}};
    EXPECT_EQ(order, expected);
}

TEST(ThreadPool, LowestIndexedExceptionWins)
{
    core::ThreadPool pool(4);
    const auto throw_from = [&](std::size_t task) {
        try {
            pool.run(64, [&](std::size_t i) {
                if (i >= task)
                    throw std::runtime_error(
                        "task " + std::to_string(i));
            });
        } catch (const std::runtime_error &e) {
            return std::string(e.what());
        }
        return std::string();
    };
    // Every task from 40 up throws; the surfaced error must be the
    // lowest index regardless of which worker hit it first.
    EXPECT_EQ(throw_from(40), "task 40");
    // The pool stays usable after a failed run.
    std::atomic<int> ran{0};
    pool.run(8, [&](std::size_t) { ++ran; });
    EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, RunIsReentrantAcrossClientThreads)
{
    // The service layer dispatches several engine sessions onto one
    // shared pool concurrently: run() must be callable from many
    // client threads at once, and every client must see exactly its
    // own tasks complete.
    core::ThreadPool pool(4);
    constexpr std::size_t kClients = 6;
    constexpr std::size_t kTasks = 96;
    constexpr int kRounds = 3;
    std::vector<std::vector<int>> hits(
        kClients, std::vector<int>(kTasks, 0));
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c)
        clients.emplace_back([&hits, &pool, c] {
            for (int round = 0; round < kRounds; ++round)
                pool.run(kTasks,
                         [&hits, c](std::size_t i) { ++hits[c][i]; });
        });
    for (auto &client : clients)
        client.join();
    for (std::size_t c = 0; c < kClients; ++c)
        for (std::size_t i = 0; i < kTasks; ++i)
            EXPECT_EQ(hits[c][i], kRounds) << c << ":" << i;
}

TEST(ThreadPool, ConcurrentClientExceptionsStayIsolated)
{
    // One client's failing job must not poison a co-running job.
    core::ThreadPool pool(4);
    std::atomic<int> good{0};
    std::string thrown;
    std::thread bad([&pool, &thrown] {
        try {
            pool.run(32, [](std::size_t i) {
                if (i == 7)
                    throw std::runtime_error("task 7");
            });
        } catch (const std::runtime_error &e) {
            thrown = e.what();
        }
    });
    std::thread fine([&pool, &good] {
        for (int round = 0; round < 8; ++round)
            pool.run(32, [&good](std::size_t) { ++good; });
    });
    bad.join();
    fine.join();
    EXPECT_EQ(thrown, "task 7");
    EXPECT_EQ(good.load(), 8 * 32);
}

TEST(ThreadPool, ResolveThreadCount)
{
    EXPECT_EQ(core::ThreadPool::resolveThreadCount(1), 1u);
    EXPECT_EQ(core::ThreadPool::resolveThreadCount(7), 7u);
    EXPECT_GE(core::ThreadPool::resolveThreadCount(0), 1u);
}

} // namespace
} // namespace khuzdul
