/**
 * @file
 * Unit tests for the app-server execute queue (sim::ThreadPool,
 * simulated time) and for the real-OS-thread fork-join
 * (core::parallelFor), whose determinism and first-failure contracts
 * the parallel model paths rely on.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/contracts.hh"
#include "core/parallel.hh"
#include "sim/thread_pool.hh"

using wcnn::sim::Simulator;
using wcnn::sim::ThreadPool;

TEST(ThreadPoolTest, ZeroConfiguredFloorsToOneWorker)
{
    Simulator sim;
    ThreadPool pool(sim, "default", 0, 10);
    EXPECT_EQ(pool.threads(), 1u);
}

TEST(ThreadPoolTest, ImmediateDispatchWhenIdle)
{
    Simulator sim;
    ThreadPool pool(sim, "web", 2, 10);
    bool started = false;
    pool.submit([&](std::function<void()> done) {
        started = true;
        done();
    });
    EXPECT_TRUE(started);
    EXPECT_EQ(pool.completed(), 1u);
    EXPECT_EQ(pool.busy(), 0u);
}

TEST(ThreadPoolTest, ThreadHeldUntilCompletionThunk)
{
    Simulator sim;
    ThreadPool pool(sim, "web", 1, 10);
    std::function<void()> finish;
    pool.submit([&](std::function<void()> done) {
        finish = std::move(done);
    });
    EXPECT_EQ(pool.busy(), 1u);
    bool second_started = false;
    pool.submit([&](std::function<void()> done) {
        second_started = true;
        done();
    });
    EXPECT_FALSE(second_started);
    EXPECT_EQ(pool.queued(), 1u);
    finish(); // releases the worker; queued item dispatches
    EXPECT_TRUE(second_started);
    EXPECT_EQ(pool.completed(), 2u);
}

TEST(ThreadPoolTest, BacklogCapRejects)
{
    Simulator sim;
    ThreadPool pool(sim, "web", 1, 2);
    std::vector<std::function<void()>> finishers;
    // Occupy the worker and fill the backlog.
    for (int i = 0; i < 3; ++i) {
        const bool ok = pool.submit([&](std::function<void()> done) {
            finishers.push_back(std::move(done));
        });
        EXPECT_TRUE(ok);
    }
    EXPECT_EQ(pool.queued(), 2u);
    EXPECT_FALSE(pool.submit([](std::function<void()>) {}));
    EXPECT_EQ(pool.dropped(), 1u);
}

TEST(ThreadPoolTest, QueueDelayMeasured)
{
    Simulator sim;
    ThreadPool pool(sim, "web", 1, 10);
    // First item holds the thread for 2 seconds of simulated time.
    pool.submit([&](std::function<void()> done) {
        sim.schedule(2.0, done);
    });
    bool ran = false;
    pool.submit([&](std::function<void()> done) {
        ran = true;
        done();
    });
    sim.run(10.0);
    EXPECT_TRUE(ran);
    // One dispatch waited 0s, the other 2s.
    EXPECT_EQ(pool.queueDelay().count(), 2u);
    EXPECT_NEAR(pool.queueDelay().max(), 2.0, 1e-12);
}

TEST(ThreadPoolTest, ParallelWorkersRunConcurrently)
{
    Simulator sim;
    ThreadPool pool(sim, "web", 3, 10);
    int active_peak = 0, active = 0;
    for (int i = 0; i < 3; ++i) {
        pool.submit([&](std::function<void()> done) {
            ++active;
            active_peak = std::max(active_peak, active);
            sim.schedule(1.0, [&active, done = std::move(done)] {
                --active;
                done();
            });
        });
    }
    EXPECT_EQ(pool.busy(), 3u);
    sim.run(10.0);
    EXPECT_EQ(active_peak, 3);
    EXPECT_EQ(pool.completed(), 3u);
}

TEST(ThreadPoolTest, NameAccessor)
{
    Simulator sim;
    ThreadPool pool(sim, "mfg", 4, 10);
    EXPECT_EQ(pool.name(), "mfg");
    EXPECT_EQ(pool.threads(), 4u);
}

// ---- core::parallelFor: the real-OS-thread fork-join. ----

namespace {

/** Thread counts the contracts are exercised at. */
constexpr std::size_t kCoreThreadCounts[] = {1, 2, 8};

} // namespace

TEST(CoreThreadPoolTest, HardwareThreadsAtLeastOne)
{
    EXPECT_GE(wcnn::core::hardwareThreads(), 1u);
}

TEST(CoreThreadPoolTest, RunsEveryTaskExactlyOnce)
{
    for (std::size_t threads : kCoreThreadCounts) {
        const std::size_t n = 100;
        std::vector<int> hits(n, 0);
        std::atomic<int> total{0};
        wcnn::core::parallelFor(n, threads, [&](std::size_t i) {
            ++hits[i]; // own slot only: no synchronization needed
            total.fetch_add(1, std::memory_order_relaxed);
        });
        EXPECT_EQ(total.load(), static_cast<int>(n));
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(hits[i], 1) << "task " << i;
    }
}

TEST(CoreThreadPoolTest, ResultsIndependentOfThreadCountAndOrder)
{
    // Index-slot writes make the outcome a pure function of n, however
    // the scheduler interleaves the claims.
    const std::size_t n = 257;
    const auto run = [n](std::size_t threads) {
        std::vector<double> out(n);
        wcnn::core::parallelFor(n, threads, [&](std::size_t i) {
            out[i] = static_cast<double>(i * i) * 0.25;
        });
        return out;
    };
    const std::vector<double> serial = run(1);
    for (std::size_t threads : kCoreThreadCounts)
        EXPECT_EQ(run(threads), serial);
}

TEST(CoreThreadPoolTest, LowestIndexExceptionWinsAtEveryThreadCount)
{
    // Several tasks fail; the rethrown exception must be the lowest
    // failing index no matter how many runners raced for tasks.
    for (std::size_t threads : kCoreThreadCounts) {
        std::string caught;
        try {
            wcnn::core::parallelFor(64, threads, [](std::size_t i) {
                if (i >= 7 && i % 3 == 1)
                    throw std::runtime_error("task " +
                                             std::to_string(i));
            });
        } catch (const std::runtime_error &e) {
            caught = e.what();
        }
        EXPECT_EQ(caught, "task 7") << "threads = " << threads;
    }
}

TEST(CoreThreadPoolTest, AllTasksStillRunWhenOneThrows)
{
    // First-failure semantics drain the whole batch before rethrowing,
    // so the exception choice cannot depend on scheduling.
    for (std::size_t threads : kCoreThreadCounts) {
        const std::size_t n = 32;
        std::vector<int> hits(n, 0);
        EXPECT_THROW(
            wcnn::core::parallelFor(n, threads,
                                    [&](std::size_t i) {
                                        ++hits[i];
                                        if (i == 3)
                                            throw std::runtime_error(
                                                "boom");
                                    }),
            std::runtime_error);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(hits[i], 1) << "task " << i;
    }
}

#ifndef WCNN_NO_CONTRACTS
TEST(CoreThreadPoolTest, ContractViolationPropagates)
{
    // A contract tripping inside a worker must surface to the caller
    // as the same exception type it throws serially.
    for (std::size_t threads : kCoreThreadCounts) {
        EXPECT_THROW(wcnn::core::parallelFor(
                         8, threads,
                         [](std::size_t i) {
                             WCNN_REQUIRE(i != 5,
                                          "task 5 violates its "
                                          "contract");
                         }),
                     wcnn::ContractViolation);
    }
}
#endif

TEST(CoreThreadPoolTest, ZeroAndSingleTaskBatches)
{
    int runs = 0;
    wcnn::core::parallelFor(0, 4, [&](std::size_t) { ++runs; });
    EXPECT_EQ(runs, 0);
    wcnn::core::parallelFor(1, 4, [&](std::size_t i) {
        EXPECT_EQ(i, 0u);
        ++runs;
    });
    EXPECT_EQ(runs, 1);
    wcnn::core::parallelFor(0, 0, [&](std::size_t) { ++runs; });
    EXPECT_EQ(runs, 1);
}

TEST(CoreThreadPoolTest, MoreThreadsThanTasks)
{
    std::vector<int> hits(3, 0);
    wcnn::core::parallelFor(3, 16,
                            [&](std::size_t i) { ++hits[i]; });
    for (int h : hits)
        EXPECT_EQ(h, 1);
}
