/**
 * @file
 * Unit tests for the discrete-event queue.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/domain.hh"

using namespace barre;

TEST(EventQueue, StartsAtTickZeroAndEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickFiresInScheduleOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CallbackMaySchedule)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        ++fired;
        eq.schedule(5, [&] { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 5u);
}

TEST(EventQueue, ScheduleAfterIsRelative)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(100, [&] {
        eq.scheduleAfter(7, [&] { seen = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(seen, 107u);
}

TEST(EventQueue, RunReturnsEventsFired)
{
    EventQueue eq;
    for (int i = 0; i < 5; ++i)
        eq.schedule(i, [] {});
    EXPECT_EQ(eq.pending(), 5u);
    EXPECT_EQ(eq.run(), 5u);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.run(), 0u);
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(10, [&] {
        EXPECT_THROW(eq.schedule(5, [] {}), std::logic_error);
    });
    eq.run();
}

TEST(EventQueue, InterleavedScheduleAndRun)
{
    EventQueue eq;
    std::vector<Tick> ticks;
    // A self-rescheduling heartbeat that stops after 5 beats.
    std::function<void()> beat = [&] {
        ticks.push_back(eq.now());
        if (ticks.size() < 5)
            eq.scheduleAfter(10, beat);
    };
    eq.schedule(0, beat);
    eq.run();
    EXPECT_EQ(ticks, (std::vector<Tick>{0, 10, 20, 30, 40}));
}

// ---- ordering invariants (same-tick FIFO, boundaries) ----

TEST(EventQueueOrdering, ZeroDelayKeepsFifoWithSameTickHeapEvents)
{
    // Events already in the heap for tick T were scheduled earlier
    // (smaller seq) than zero-delay events created *at* tick T, so they
    // must fire first: the latter carry a later birth tick.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] {
        order.push_back(0);
        // Zero-delay: scheduled at tick 10, after the two below.
        eq.scheduleAfter(0, [&] { order.push_back(3); });
        eq.scheduleAfter(0, [&] { order.push_back(4); });
    });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(10, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueOrdering, ZeroDelayChainsAreFifo)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] {
        eq.scheduleAfter(0, [&] {
            order.push_back(1);
            eq.scheduleAfter(0, [&] { order.push_back(3); });
        });
        eq.scheduleAfter(0, [&] { order.push_back(2); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 5u);
}

TEST(EventQueueOrdering, ScheduleAtNowIsFifoWithScheduleAfterZero)
{
    // schedule(now, ...) and scheduleAfter(0, ...) interleave in plain
    // scheduling order.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(7, [&] {
        eq.schedule(7, [&] { order.push_back(1); });
        eq.scheduleAfter(0, [&] { order.push_back(2); });
        eq.schedule(7, [&] { order.push_back(3); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueOrdering, GlobalWhenSeqOrderUnderStress)
{
    // 5000 events at pseudo-random ticks must fire in (when, seq) order.
    EventQueue eq;
    std::vector<std::pair<Tick, int>> fired;
    std::uint64_t x = 12345;
    for (int i = 0; i < 5000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        Tick when = (x >> 33) % 97;
        eq.schedule(when, [&fired, &eq, i] {
            fired.emplace_back(eq.now(), i);
        });
    }
    eq.run();
    ASSERT_EQ(fired.size(), 5000u);
    for (std::size_t i = 1; i < fired.size(); ++i) {
        ASSERT_LE(fired[i - 1].first, fired[i].first);
        if (fired[i - 1].first == fired[i].first) {
            ASSERT_LT(fired[i - 1].second, fired[i].second);
        }
    }
}

TEST(EventQueueOrdering, RunThenRunPreservesFifoAcrossCalls)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] { order.push_back(1); });
    eq.run();
    // now() == 10; same-tick events scheduled now fire on the next run.
    eq.schedule(10, [&] { order.push_back(2); });
    eq.scheduleAfter(0, [&] { order.push_back(3); });
    eq.schedule(12, [&] { order.push_back(4); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueueOrdering, SchedulingIntoThePastAsserts)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    EXPECT_EQ(eq.now(), 100u);
    EXPECT_THROW(eq.schedule(99, [] {}), std::logic_error);
    // Same tick is allowed (== now), one past is not.
    eq.schedule(100, [] {});
    eq.run();
}

TEST(EventQueueOrdering, PanicOutOfRunLeavesNoExecutionContext)
{
    // A panic that escapes run() must not leave the fired event's
    // context behind: later code outside any event acts as the host.
    EventQueue eq;
    eq.scheduleCross(chipletTag(2), 5, [] { barre_panic("boom"); });
    EXPECT_THROW(eq.run(), std::logic_error);
    EXPECT_EQ(currentExecTag(), kHostTag);
    EXPECT_EQ(eq.now(), 5u);
    int fired = 0;
    eq.scheduleAfter(1, [&] {
        ++fired;
        EXPECT_EQ(currentExecTag(), kHostTag);
    });
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 6u);
}

TEST(EventQueueOrdering, FiredCounterAccumulates)
{
    EventQueue eq;
    for (int i = 0; i < 3; ++i)
        eq.schedule(i, [] {});
    eq.run();
    eq.schedule(10, [] {});
    eq.run();
    EXPECT_EQ(eq.fired(), 4u);
}
