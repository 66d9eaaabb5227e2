/**
 * @file
 * Unit tests for the host-thread primitives: runOnThreads() (one
 * thread per cooperating task), parallelFor() (a shared start-order
 * cursor over a few threads) and the defaultWorkers() policy.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

#include "harness/pool.hh"

using namespace barre;

TEST(ThreadPool, SingleWorkerSpawnsNoThreadsAndRunsEverything)
{
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<int> hits(100, 0);
    parallelFor(1, hits.size(), [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        hits[i] = 1;
    });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 100);
}

TEST(ThreadPool, EveryIndexRunsExactlyOnce)
{
    constexpr std::size_t n = 10000;
    std::vector<std::atomic<int>> hits(n);
    parallelFor(4, n, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, EmptyBatchIsANoOp)
{
    parallelFor(2, 0, [&](std::size_t) { FAIL(); });
    runOnThreads(0, [&](std::size_t) { FAIL(); });
}

TEST(ThreadPool, FirstExceptionPropagatesAndWorkContinues)
{
    std::atomic<int> ran{0};
    try {
        parallelFor(4, 100, [&](std::size_t i) {
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
    std::vector<std::atomic<int>> hits(3);
    parallelFor(8, 3, [&](std::size_t i) { ++hits[i]; });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleWorkerRunsTheHighestIndexFirst)
{
    // The unhinted runManyJobs start order: callers that list cheap
    // cells first (fig15_high_mpki's baseline column) get the
    // expensive ones started first.
    std::vector<std::size_t> ran;
    parallelFor(1, 5, [&](std::size_t i) { ran.push_back(i); });
    EXPECT_EQ(ran, (std::vector<std::size_t>{4, 3, 2, 1, 0}));
}

namespace
{

/** defaultWorkers() under BARRE_JOBS=@p value; leaves it unset. */
unsigned
workersWithJobs(const char *value)
{
    setenv("BARRE_JOBS", value, 1);
    struct Unset
    {
        ~Unset() { unsetenv("BARRE_JOBS"); }
    } unset;
    return defaultWorkers();
}

/** CPUs in this thread's affinity mask (the unset-BARRE_JOBS count). */
unsigned
usableCpus()
{
#ifdef __linux__
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return unsigned(CPU_COUNT(&set));
#endif
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

} // namespace

TEST(ThreadPool, DefaultWorkersHonorsBarreJobs)
{
    EXPECT_EQ(workersWithJobs("3"), 3u);
    EXPECT_EQ(workersWithJobs("1"), 1u);
    // Unset and empty both mean "every usable core".
    EXPECT_EQ(workersWithJobs(""), usableCpus());
    EXPECT_EQ(defaultWorkers(), usableCpus());
}

#ifdef __linux__
TEST(ThreadPool, DefaultWorkersCountsTheAffinityMask)
{
    // Regression: hardware_concurrency() counts every online CPU, so a
    // `taskset -c 0` run or a cpuset-restricted container sized its
    // sweeps and scheduler budget to the whole host.
    cpu_set_t saved;
    ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
    int cpu = 0;
    while (!CPU_ISSET(cpu, &saved))
        ++cpu;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
    unsetenv("BARRE_JOBS");
    const unsigned pinned = defaultWorkers();
    ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
    EXPECT_EQ(pinned, 1u);
}
#endif

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
    EXPECT_EQ(workersWithJobs("2000"), kMaxJobs);
    EXPECT_EQ(workersWithJobs("1025"), kMaxJobs);
    EXPECT_EQ(workersWithJobs("1024"), kMaxJobs);
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
    constexpr std::size_t n = 4096;
    // Ascending priority order: the reverse of the [0, n) overload.
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::vector<std::atomic<int>> hits(n);
    parallelFor(4, order, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, SingleWorkerHonorsThePriorityOrder)
{
    std::vector<std::size_t> order{3, 0, 2, 1};
    std::vector<std::size_t> ran;
    parallelFor(1, order, [&](std::size_t i) { ran.push_back(i); });
    EXPECT_EQ(ran, order);
}

TEST(ThreadPool, OrderedBatchPropagatesExceptions)
{
    std::vector<std::size_t> order{0, 1, 2, 3};
    EXPECT_THROW(parallelFor(2, order,
                             [&](std::size_t i) {
                                 if (i == 1)
                                     throw std::runtime_error("boom");
                             }),
                 std::runtime_error);
}

TEST(ThreadPool, PinnedBatchRunsEachTaskOnItsOwnWorker)
{
    // Tasks that rendezvous at a spin barrier deadlock if one thread
    // ever owns two of them; runOnThreads gives each task a thread of
    // its own, so this must complete.
    std::atomic<unsigned> arrived{0};
    runOnThreads(3, [&](std::size_t) {
        ++arrived;
        while (arrived.load() < 3)
            std::this_thread::yield();
    });
    EXPECT_EQ(arrived.load(), 3u);
}

TEST(ThreadPool, PinnedBatchMayUseFewerTasksThanWorkers)
{
    // runOnThreads(k) spawns k - 1 threads whatever the host's worker
    // count: task 0 runs on the calling thread, every other task on a
    // distinct spawned one.
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::thread::id> ids(2);
    runOnThreads(2, [&](std::size_t i) {
        ids[i] = std::this_thread::get_id();
    });
    EXPECT_EQ(ids[0], caller);
    EXPECT_NE(ids[1], caller);
    EXPECT_NE(ids[1], std::thread::id());
}

TEST(ThreadPool, CoScheduledThrowIsRethrownAfterPeersReturn)
{
    // The epoch scheduler's error path: one worker throws while its
    // peers are still running; the caller must not see the error
    // until every peer has returned (their stack frames reference
    // the caller's state).
    std::atomic<unsigned> returned{0};
    try {
        runOnThreads(3, [&](std::size_t i) {
            if (i == 1)
                throw std::runtime_error("worker 1");
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            ++returned;
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "worker 1");
        EXPECT_EQ(returned.load(), 2u);
    }
}

TEST(ThreadPool, ParallelForUsesAtMostWorkersThreads)
{
    std::mutex m;
    std::set<std::thread::id> seen;
    parallelFor(3, 64, [&](std::size_t) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        std::lock_guard<std::mutex> lk(m);
        seen.insert(std::this_thread::get_id());
    });
    EXPECT_GE(seen.size(), 1u);
    EXPECT_LE(seen.size(), 3u);
    EXPECT_EQ(seen.count(std::this_thread::get_id()), 1u);
}
