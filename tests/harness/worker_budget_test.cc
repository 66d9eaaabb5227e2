/**
 * @file
 * The process-wide worker-thread budget behind DomainScheduler. The
 * regression being pinned: concurrent partitioned runs used to contend
 * on a global scheduler lock, so every run but the first degraded to
 * fully serial execution. Now each run leases its share of the host's
 * cores (WorkerBudget) and spawns the threads of its lease for itself
 * (runOnThreads) — leases can never oversubscribe the capacity, always
 * leave the caller at least its own thread, and concurrent partitioned
 * runs both complete multi-threaded and stay bitwise identical to the
 * serial reference.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "harness/domain_scheduler.hh"
#include "sim/domain.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

using namespace barre;

namespace
{

TEST(WorkerBudget, LeaseSemantics)
{
    WorkerBudget b(4);
    EXPECT_EQ(b.capacity(), 4u);

    // A single-threaded run never leases anything.
    EXPECT_EQ(b.acquire(0), 1u);
    EXPECT_EQ(b.acquire(1), 1u);
    EXPECT_EQ(b.inUse(), 0u);

    // Wanting more than the capacity clamps to it (the caller's own
    // thread plus capacity-1 leased extras).
    const unsigned big = b.acquire(8);
    EXPECT_EQ(big, 4u);
    EXPECT_EQ(b.inUse(), 3u);

    // A second concurrent run finds the budget exhausted and runs on
    // its own thread alone — never zero, never blocked.
    const unsigned starved = b.acquire(4);
    EXPECT_EQ(starved, 1u);
    b.release(starved);
    EXPECT_EQ(b.inUse(), 3u);

    b.release(big);
    EXPECT_EQ(b.inUse(), 0u);

    // After the release the full budget is available again.
    const unsigned again = b.acquire(3);
    EXPECT_EQ(again, 3u);
    b.release(again);
    EXPECT_EQ(b.inUse(), 0u);
}

TEST(WorkerBudget, ZeroCapacityClampsToOne)
{
    WorkerBudget b(0);
    EXPECT_EQ(b.capacity(), 1u);
    EXPECT_EQ(b.acquire(6), 1u);
    EXPECT_EQ(b.inUse(), 0u);
}

TEST(WorkerBudget, ConcurrentLeasesNeverOversubscribe)
{
    WorkerBudget b(8);
    constexpr unsigned kThreads = 6;
    constexpr int kRounds = 400;
    std::atomic<bool> over{false};
    std::atomic<bool> bad_grant{false};

    std::vector<std::thread> threads;
    for (unsigned i = 0; i < kThreads; ++i) {
        threads.emplace_back([&]() {
            for (int r = 0; r < kRounds; ++r) {
                const unsigned g = b.acquire(4);
                if (g < 1 || g > 4)
                    bad_grant.store(true, std::memory_order_relaxed);
                // Leased extras across all runs can never exceed
                // capacity - 1 (every caller keeps its own thread).
                if (b.inUse() > b.capacity() - 1)
                    over.store(true, std::memory_order_relaxed);
                b.release(g);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    EXPECT_FALSE(bad_grant.load());
    EXPECT_FALSE(over.load());
    EXPECT_EQ(b.inUse(), 0u);
}

constexpr std::size_t kTags = 5;
constexpr Tick kLinkDelay = 33;
const std::vector<std::uint32_t> kFiveDomains{0, 1, 2, 3, 4};

/** Minimal self-perpetuating tagged workload (domain_queue_test's
 *  DiffDriver, shrunk to what a digest comparison needs). */
struct SmallDriver
{
    EventQueue eq;
    std::vector<Rng> rngs;
    std::vector<std::uint64_t> budget;

    explicit SmallDriver(std::uint64_t per_tag)
        : budget(kTags, per_tag)
    {
        for (std::size_t t = 0; t < kTags; ++t)
            rngs.emplace_back(0xb06e7 + t);
        eq.enableTags(kFiveDomains, 5);
    }

    void
    fire(SeqTag t)
    {
        (void)rngs[t].next();
        const std::uint64_t children = 1 + rngs[t].below(2);
        for (std::uint64_t k = 0; k < children; ++k) {
            if (budget[t] == 0)
                return;
            --budget[t];
            if (rngs[t].below(4) == 0) {
                const SeqTag dst =
                    static_cast<SeqTag>(rngs[t].below(kTags));
                eq.scheduleCross(dst,
                                 eq.now() + kLinkDelay +
                                     rngs[t].below(64),
                                 [this, dst]() { fire(dst); });
            } else {
                eq.scheduleAfter(rngs[t].below(128),
                                 [this, t]() { fire(t); });
            }
        }
    }

    std::vector<std::uint64_t>
    run(unsigned threads)
    {
        for (std::size_t t = 0; t < kTags; ++t) {
            EventQueue::TagScope scope(eq, static_cast<SeqTag>(t));
            const SeqTag tag = static_cast<SeqTag>(t);
            eq.schedule(t * 7, [this, tag]() { fire(tag); });
        }
        DomainScheduler::run(eq, kLinkDelay, threads);
        return eq.taggedEngine()->fireDigests();
    }
};

TEST(WorkerBudget, ConcurrentPartitionedRunsStayIdentical)
{
    constexpr std::uint64_t per_tag = 1500;
    SmallDriver ref(per_tag);
    const std::vector<std::uint64_t> want = ref.run(1);

    // Two partitioned runs racing for the same budget: whatever lease
    // each one ends up with, both must complete (no deadlock between
    // their epoch barriers) and match the serial schedule.
    constexpr int kRuns = 2;
    std::vector<std::vector<std::uint64_t>> got(kRuns);
    std::vector<std::thread> threads;
    for (int i = 0; i < kRuns; ++i) {
        threads.emplace_back([&got, i]() {
            SmallDriver d(per_tag);
            got[i] = d.run(4);
        });
    }
    for (std::thread &t : threads)
        t.join();

    for (int i = 0; i < kRuns; ++i)
        EXPECT_TRUE(got[i] == want) << "concurrent run " << i;
    EXPECT_EQ(DomainScheduler::budget().inUse(), 0u);
}

} // namespace
