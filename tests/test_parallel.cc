/**
 * @file
 * Tests for the deterministic parallel execution layer
 * (common/parallel.hh): index coverage, pool reuse, worker-slot
 * bounds, exception propagation (including pool reusability after
 * a throw), the owner's stop check, empty/singleton ranges, and
 * bit-identical parallelMap results across thread counts under
 * per-item seeding.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/parallel.hh"
#include "common/rng.hh"

namespace printed
{
namespace
{

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce)
{
    for (unsigned threads : {1u, 2u, 5u, 8u}) {
        ThreadPool pool(threads);
        EXPECT_EQ(pool.threadCount(), threads);
        constexpr std::size_t n = 1000;
        std::vector<std::atomic<unsigned>> hits(n);
        pool.parallelFor(n, [&](std::size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(hits[i].load(), 1u)
                << "index " << i << " with " << threads
                << " threads";
    }
}

TEST(ThreadPoolTest, EmptyAndSingletonRanges)
{
    ThreadPool pool(4);
    bool ran = false;
    pool.parallelFor(0, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);

    std::size_t only = 999;
    pool.parallelFor(1, [&](std::size_t i) { only = i; });
    EXPECT_EQ(only, 0u);

    EXPECT_TRUE(pool.parallelMap(0, [](std::size_t i) { return i; })
                    .empty());
}

TEST(ThreadPoolTest, ReusableAcrossManyJobs)
{
    ThreadPool pool(4);
    for (int job = 0; job < 50; ++job) {
        const std::size_t n = 1 + std::size_t(job) * 7 % 97;
        std::atomic<std::size_t> sum{0};
        pool.parallelFor(n, [&](std::size_t i) {
            sum.fetch_add(i + 1, std::memory_order_relaxed);
        });
        EXPECT_EQ(sum.load(), n * (n + 1) / 2) << "job " << job;
    }
}

TEST(ThreadPoolTest, WorkerSlotsAreInBounds)
{
    ThreadPool pool(3);
    std::mutex m;
    std::set<unsigned> seen;
    pool.parallelForWorkers(200, [&](std::size_t, unsigned worker) {
        std::lock_guard<std::mutex> lock(m);
        seen.insert(worker);
    });
    EXPECT_FALSE(seen.empty());
    for (unsigned w : seen)
        EXPECT_LT(w, pool.threadCount());
}

TEST(ThreadPoolTest, PropagatesFirstExceptionAndStaysUsable)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallelFor(100,
                         [&](std::size_t i) {
                             if (i == 17)
                                 throw std::runtime_error("item 17");
                         }),
        std::runtime_error);

    // After an aborted job the pool must still work — and still
    // cover every index.
    std::atomic<std::size_t> count{0};
    pool.parallelFor(64, [&](std::size_t) {
        count.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(count.load(), 64u);
}

TEST(ThreadPoolTest, ExceptionOnInlinePath)
{
    ThreadPool pool(1);
    EXPECT_THROW(pool.parallelFor(
                     4,
                     [](std::size_t i) {
                         if (i == 2)
                             throw std::logic_error("inline");
                     }),
                 std::logic_error);
}

/** The stop check's own exception type, to see it reach the caller. */
struct Stopped
{
};

TEST(ThreadPoolTest, StopCheckStopsTheJobAndEndsWithItsScope)
{
    // 1 thread is the inline path, 4 the workers'. Every item calls
    // the check first, so exactly the first k calls let an item run.
    constexpr std::size_t n = 1000, k = 10;
    for (unsigned threads : {1u, 4u}) {
        ThreadPool pool(threads);
        std::atomic<std::size_t> calls{0}, ran{0};
        {
            ThreadPool::StopScope scope(pool, [&] {
                if (calls.fetch_add(1, std::memory_order_relaxed) >= k)
                    throw Stopped{};
            });
            const auto item = [&](std::size_t) {
                ran.fetch_add(1, std::memory_order_relaxed);
            };
            EXPECT_THROW(pool.parallelFor(n, item), Stopped);
        }
        EXPECT_EQ(ran.load(), k) << threads << " threads";

        // With the check removed, the next job covers every index
        // exactly once.
        std::vector<std::atomic<unsigned>> hits(n);
        pool.parallelFor(n, [&](std::size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(hits[i].load(), 1u)
                << "index " << i << " with " << threads << " threads";
    }
}

TEST(ThreadPoolTest, ParallelMapPreservesIndexOrder)
{
    ThreadPool pool(4);
    const auto out = pool.parallelMap(
        257, [](std::size_t i) { return 3 * i + 1; });
    ASSERT_EQ(out.size(), 257u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], 3 * i + 1);
}

TEST(ThreadPoolTest, ParallelMapWorksWithNonDefaultConstructible)
{
    struct NoDefault
    {
        explicit NoDefault(std::size_t v) : value(v) {}
        std::size_t value;
    };
    ThreadPool pool(4);
    const auto out = pool.parallelMap(
        16, [](std::size_t i) { return NoDefault(i * i); });
    ASSERT_EQ(out.size(), 16u);
    EXPECT_EQ(out[5].value, 25u);
}

TEST(ThreadPoolTest, SeededMapBitIdenticalAcrossThreadCounts)
{
    // The determinism contract: item i draws from Rng(mixSeed(s, i)),
    // so the result vector is bit-identical for any thread count, and
    // a stop check that never throws changes nothing either.
    const auto item = [](std::size_t i) {
        Rng rng(mixSeed(12345, i));
        double acc = 0;
        for (int k = 0; k < 16; ++k)
            acc += std::sqrt(double(rng.next() >> 11));
        return acc;
    };
    ThreadPool one(1);
    const auto serial = one.parallelMap(500, item);
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
        for (bool checked : {false, true}) {
            ThreadPool pool(threads);
            std::atomic<std::size_t> calls{0};
            std::optional<ThreadPool::StopScope> scope;
            if (checked)
                scope.emplace(pool, [&] {
                    calls.fetch_add(1, std::memory_order_relaxed);
                });
            const auto parallel = pool.parallelMap(500, item);
            EXPECT_EQ(calls.load(), checked ? 500u : 0u);
            ASSERT_EQ(parallel.size(), serial.size());
            for (std::size_t i = 0; i < serial.size(); ++i)
                ASSERT_EQ(parallel[i], serial[i])
                    << "item " << i << " with " << threads
                    << " threads, check " << checked;
        }
    }
}

TEST(ThreadPoolTest, DefaultThreadCount)
{
    EXPECT_GE(ThreadPool::defaultThreadCount(), 1u);
    ThreadPool hw(0); // 0 = hardware concurrency
    EXPECT_EQ(hw.threadCount(), ThreadPool::defaultThreadCount());
}

TEST(MixSeed, DistinctPerItemStreams)
{
    std::set<std::uint64_t> seen;
    for (std::uint64_t s : {1ull, 2ull})
        for (std::uint64_t i = 0; i < 1000; ++i)
            seen.insert(mixSeed(s, i));
    EXPECT_EQ(seen.size(), 2000u);
    EXPECT_EQ(mixSeed(7, 3), mixSeed(7, 3));
}

} // anonymous namespace
} // namespace printed
