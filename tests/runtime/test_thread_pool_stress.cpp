// ThreadPool stress tests aimed at ThreadSanitizer (tools/san, ISSUE 4).
//
// The determinism contract (parallel == serial bit-for-bit) is only worth
// anything if the scheduler underneath is race-free; these tests create the
// interleavings TSan needs to observe to prove that — concurrent submitters,
// shutdown racing a full queue, task exceptions, and rapid pool churn. They
// assert functional results too, so they are useful (if less interesting)
// under plain builds.

#include "locble/runtime/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "locble/obs/obs.hpp"

namespace locble::runtime {
namespace {

TEST(ThreadPoolStressTest, ManyTasksFromManySubmitters) {
    ThreadPool pool(8);
    constexpr int kSubmitters = 4;
    constexpr int kTasksPer = 250;

    std::atomic<std::int64_t> sum{0};
    std::vector<std::future<void>> futures[kSubmitters];
    std::vector<std::thread> submitters;
    submitters.reserve(kSubmitters);
    for (int s = 0; s < kSubmitters; ++s) {
        submitters.emplace_back([&, s] {
            futures[s].reserve(kTasksPer);
            for (int i = 0; i < kTasksPer; ++i)
                futures[s].push_back(
                    pool.submit([&sum, i] { sum.fetch_add(i, std::memory_order_relaxed); }));
        });
    }
    for (auto& t : submitters) t.join();
    for (auto& per_thread : futures)
        for (auto& f : per_thread) f.get();

    const std::int64_t per_submitter = kTasksPer * (kTasksPer - 1) / 2;
    EXPECT_EQ(sum.load(), kSubmitters * per_submitter);
}

TEST(ThreadPoolStressTest, DestructionDrainsQueuedTasks) {
    // Destroying the pool while the queue is still deep must run every
    // queued task exactly once before joining (shutdown never drops work).
    std::atomic<int> ran{0};
    {
        ThreadPool pool(4);
        for (int i = 0; i < 500; ++i)
            pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
        // ~pool runs here, racing the workers against a mostly-full queue.
    }
    EXPECT_EQ(ran.load(), 500);
}

TEST(ThreadPoolStressTest, RapidPoolChurn) {
    // Construction/teardown cycles stress worker startup racing shutdown —
    // a classic source of missed-wakeup and use-after-join bugs.
    std::atomic<int> ran{0};
    for (int cycle = 0; cycle < 20; ++cycle) {
        ThreadPool pool(3);
        std::vector<std::future<void>> futures;
        futures.reserve(10);
        for (int i = 0; i < 10; ++i)
            futures.push_back(
                pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); }));
        for (auto& f : futures) f.get();
    }
    EXPECT_EQ(ran.load(), 20 * 10);
}

TEST(ThreadPoolStressTest, TaskExceptionsLandInFuturesUnderLoad) {
    ThreadPool pool(8);
    constexpr int kTasks = 300;
    std::vector<std::future<void>> futures;
    futures.reserve(kTasks);
    std::atomic<int> ok_ran{0};
    for (int i = 0; i < kTasks; ++i) {
        futures.push_back(pool.submit([&ok_ran, i] {
            if (i % 7 == 0) throw std::runtime_error("trial failed");
            ok_ran.fetch_add(1, std::memory_order_relaxed);
        }));
    }
    int threw = 0;
    for (auto& f : futures) {
        try {
            f.get();
        } catch (const std::runtime_error&) {
            ++threw;
        }
    }
    EXPECT_EQ(threw, (kTasks + 6) / 7);
    EXPECT_EQ(ok_ran.load(), kTasks - threw);
}

TEST(ThreadPoolStressTest, OversubscribedPoolMakesProgress) {
    // More workers than cores (this container has 1) forces heavy
    // contention on the single queue mutex and condition variable.
    ThreadPool pool(16);
    std::atomic<std::uint64_t> sum{0};
    std::vector<std::future<void>> futures;
    futures.reserve(2000);
    for (int i = 0; i < 2000; ++i)
        futures.push_back(
            pool.submit([&sum] { sum.fetch_add(1, std::memory_order_relaxed); }));
    for (auto& f : futures) f.get();
    EXPECT_EQ(sum.load(), 2000u);
}

#if LOCBLE_OBS
TEST(ThreadPoolStressTest, TaskCountIsVisibleOnceItsFutureIsReady) {
    // A caller that returns from a task's future and then snapshots the
    // registry (the serve epoch barrier followed by a metrics read) must
    // see that task counted. Under TSan a count made after the future is
    // ready is also a data race with the snapshot's read of the slot.
    obs::Registry& reg = obs::Registry::global();
    reg.reset();
    reg.set_enabled(true);
    {
        ThreadPool pool(4);
        for (std::uint64_t i = 1; i <= 1000; ++i) {
            pool.submit([] {}).get();
            std::uint64_t counted = 0;
            for (const obs::MetricSnapshot& m : reg.snapshot())
                if (m.name == "runtime.pool.tasks") counted = m.count;
            ASSERT_EQ(counted, i) << "task " << i;
        }
    }
    reg.set_enabled(false);
}
#endif

}  // namespace
}  // namespace locble::runtime
