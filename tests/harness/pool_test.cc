/**
 * @file
 * Unit tests for the work-stealing thread pool.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "harness/pool.hh"

using namespace barre;

TEST(ThreadPool, SingleWorkerSpawnsNoThreadsAndRunsEverything)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.workers(), 1u);
    std::vector<int> hits(100, 0);
    pool.parallelFor(hits.size(), [&](std::size_t i) { hits[i] = 1; });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 100);
}

TEST(ThreadPool, EveryIndexRunsExactlyOnce)
{
    ThreadPool pool(4);
    constexpr std::size_t n = 10000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallelFor(n, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, PoolIsReusableAcrossBatches)
{
    ThreadPool pool(3);
    std::atomic<std::size_t> total{0};
    for (int round = 0; round < 5; ++round)
        pool.parallelFor(64, [&](std::size_t) { ++total; });
    EXPECT_EQ(total.load(), 5u * 64u);
}

TEST(ThreadPool, EmptyBatchIsANoOp)
{
    ThreadPool pool(2);
    pool.parallelFor(0, [&](std::size_t) { FAIL(); });
}

TEST(ThreadPool, FirstExceptionPropagatesAndWorkContinues)
{
    ThreadPool pool(4);
    std::atomic<int> ran{0};
    try {
        pool.parallelFor(100, [&](std::size_t i) {
            if (i == 13)
                throw std::runtime_error("boom");
            ++ran;
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "boom");
    }
    // Remaining tasks were not abandoned.
    EXPECT_EQ(ran.load(), 99);
}

TEST(ThreadPool, MoreWorkersThanTasks)
{
    ThreadPool pool(8);
    std::vector<std::atomic<int>> hits(3);
    pool.parallelFor(3, [&](std::size_t i) { ++hits[i]; });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

/** defaultWorkers() under BARRE_JOBS=@p value; leaves it unset. */
static unsigned
workersWithJobs(const char *value)
{
    setenv("BARRE_JOBS", value, 1);
    struct Unset
    {
        ~Unset() { unsetenv("BARRE_JOBS"); }
    } unset;
    return ThreadPool::defaultWorkers();
}

TEST(ThreadPool, DefaultWorkersHonorsBarreJobs)
{
    EXPECT_EQ(workersWithJobs("3"), 3u);
    EXPECT_EQ(workersWithJobs("1"), 1u);
    unsigned hw = std::thread::hardware_concurrency();
    unsigned fallback = hw > 0 ? hw : 1;
    // Unset and empty both mean "every core".
    EXPECT_EQ(workersWithJobs(""), fallback);
    EXPECT_EQ(ThreadPool::defaultWorkers(), fallback);
}

TEST(ThreadPool, ParseJobsStrictness)
{
    // A bad BARRE_JOBS is fatal, never a silent fall-back to every
    // core. Regression: strtol without an end-pointer check accepted
    // "4x" as 4.
    for (const char *bad : {"4x", "x", " ", "0", "-2", "2.5"}) {
        SCOPED_TRACE(bad);
        EXPECT_THROW(workersWithJobs(bad), std::runtime_error);
    }
}

TEST(ThreadPool, ParseJobsClampsOverflowInsteadOfWrapping)
{
    // In range but above the cap: clamp with a warning.
    EXPECT_EQ(workersWithJobs("2000"), ThreadPool::kMaxJobs);
    EXPECT_EQ(workersWithJobs("1025"), ThreadPool::kMaxJobs);
    EXPECT_EQ(workersWithJobs("1024"), ThreadPool::kMaxJobs);
    // Regression: 2^32+1 used to wrap to 1 on the unsigned cast. Past
    // the unsigned range the value is now fatal.
    EXPECT_THROW(workersWithJobs("4294967297"), std::runtime_error);
    EXPECT_THROW(workersWithJobs("99999999999999999999"),
                 std::runtime_error);
}

TEST(ThreadPool, DefaultWorkersRejectsTrailingGarbage)
{
    EXPECT_THROW(workersWithJobs("4x"), std::runtime_error);
    EXPECT_THROW(workersWithJobs("-7"), std::runtime_error);
    EXPECT_THROW(workersWithJobs("3 "), std::runtime_error);
}

TEST(ThreadPool, OrderedBatchRunsEveryIndexOnce)
{
    ThreadPool pool(4);
    constexpr std::size_t n = 4096;
    // Reverse priority order: highest index first.
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = n - 1 - i;
    std::vector<std::atomic<int>> hits(n);
    pool.parallelForOrdered(order,
                            [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, SingleWorkerHonorsThePriorityOrder)
{
    ThreadPool pool(1);
    std::vector<std::size_t> order{3, 0, 2, 1};
    std::vector<std::size_t> ran;
    pool.parallelForOrdered(order,
                            [&](std::size_t i) { ran.push_back(i); });
    EXPECT_EQ(ran, order);
}

TEST(ThreadPool, OrderedAndUnorderedBatchesInterleaveOnOnePool)
{
    ThreadPool pool(3);
    std::atomic<std::size_t> total{0};
    std::vector<std::size_t> order{2, 1, 0};
    pool.parallelFor(5, [&](std::size_t) { ++total; });
    pool.parallelForOrdered(order, [&](std::size_t) { ++total; });
    pool.parallelFor(4, [&](std::size_t) { ++total; });
    EXPECT_EQ(total.load(), 5u + 3u + 4u);
}

TEST(ThreadPool, OrderedBatchPropagatesExceptions)
{
    ThreadPool pool(2);
    std::vector<std::size_t> order{0, 1, 2, 3};
    EXPECT_THROW(pool.parallelForOrdered(order,
                                         [&](std::size_t i) {
                                             if (i == 1)
                                                 throw std::
                                                     runtime_error(
                                                         "boom");
                                         }),
                 std::runtime_error);
}

TEST(ThreadPool, PinnedBatchRunsEachTaskOnItsOwnWorker)
{
    // Tasks that rendezvous at a barrier deadlock if one worker ever
    // owns two of them; runPinned guarantees a 1:1 task/worker map
    // (no stealing), so this must complete.
    ThreadPool pool(3);
    std::atomic<unsigned> arrived{0};
    pool.runPinned(3, [&](std::size_t) {
        ++arrived;
        while (arrived.load() < 3)
            std::this_thread::yield();
    });
    EXPECT_EQ(arrived.load(), 3u);
}

TEST(ThreadPool, PinnedBatchMayUseFewerTasksThanWorkers)
{
    ThreadPool pool(4);
    std::vector<int> hits(2, 0);
    pool.runPinned(2, [&](std::size_t i) { hits[i] = 1; });
    EXPECT_EQ(hits[0] + hits[1], 2);
    // The pool still steals in ordinary batches afterwards.
    std::atomic<std::size_t> total{0};
    pool.parallelFor(64, [&](std::size_t) { ++total; });
    EXPECT_EQ(total.load(), 64u);
}
