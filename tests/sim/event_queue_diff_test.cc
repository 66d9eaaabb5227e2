/**
 * @file
 * Differential proofs over the event engines. The calendar-front
 * EventQueue fires in exact (when, seq) order, checked against two
 * references: a one-tag, one-domain TaggedEngine — a plain 4-ary heap
 * whose (when, birth, key) order reduces to (when, seq) with a single
 * tag — fires the same randomized self-scheduling workload in the same
 * order at the same ticks under every delay mix (general,
 * IOMMU-shaped, uniform-horizon); and preloaded schedules fire in the
 * order of a stable sort of (tick, schedule index).
 */

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "harness/domain_scheduler.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

using namespace barre;

namespace
{

/**
 * Exercises the now-lane (0), the calendar window (< 256), the window
 * boundary, and the far-future heap backstop.
 */
Tick
mixedDelay(Rng &rng)
{
    switch (rng.below(8)) {
      case 0:
        return 0; // now-lane
      case 1:
      case 2:
      case 3:
        return rng.below(256); // calendar window
      case 4:
        return 255 + rng.below(3); // straddle the boundary
      case 5:
      case 6:
        return 256 + rng.below(4096); // near heap
      default:
        return rng.below(std::uint64_t{1} << 20); // far heap
    }
}

/**
 * The translation pipeline's mix: dense NoC/TLB/queue hops, same-tick
 * continuations, page-walk completions and rare fault services. Almost
 * everything lands in the calendar window.
 */
Tick
iommuBurstDelay(Rng &rng)
{
    const std::uint64_t r = rng.below(100);
    if (r < 50)
        return 1 + rng.below(8); // NoC / TLB pipeline hops
    if (r < 75)
        return 10 + rng.below(54); // queue + link serialization
    if (r < 90)
        return 0; // same-tick continuations
    if (r < 99)
        return 500; // page-walk completion
    return 20000; // demand-paging fault service
}

/** Uniform over a horizon far wider than the window: mostly heap. */
Tick
uniformHorizonDelay(Rng &rng)
{
    return rng.below(16384);
}

/**
 * A self-perpetuating random workload: every fired event records its id
 * and spawns two more with delays drawn from @p delay. Both queues run
 * the same seed; as long as firing order matches, their Rng streams
 * stay in lockstep, so any divergence cascades into an order mismatch
 * the test catches.
 */
struct Driver
{
    EventQueue eq;
    Rng rng;
    Tick (*delay)(Rng &);
    std::vector<std::uint64_t> order;
    std::vector<Tick> fire_ticks;
    std::uint64_t next_id = 0;
    std::uint64_t scheduled = 0;
    std::uint64_t target;

    Driver(std::uint64_t seed, std::uint64_t events, Tick (*delay)(Rng &),
           bool tagged = false)
        : rng(seed), delay(delay), target(events)
    {
        order.reserve(events);
        fire_ticks.reserve(events);
        if (tagged)
            eq.enableTags({0}, 1); // one tag in one domain
    }

    void
    spawn()
    {
        if (scheduled >= target)
            return;
        ++scheduled;
        const std::uint64_t id = next_id++;
        eq.scheduleAfter(delay(rng), [this, id]() {
            order.push_back(id);
            fire_ticks.push_back(eq.now());
            spawn();
            spawn();
        });
    }

    void
    run()
    {
        if (!eq.tagged()) {
            for (int i = 0; i < 64; ++i)
                spawn();
            eq.run();
            return;
        }
        {
            EventQueue::TagScope scope(eq, kHostTag);
            for (int i = 0; i < 64; ++i)
                spawn();
        }
        DomainScheduler::run(eq, max_tick, 1);
    }
};

/** Assert @p a and @p b fired the same ids at the same ticks. */
void
expectSameFiring(const Driver &a, const Driver &b, std::uint64_t events)
{
    ASSERT_EQ(a.order.size(), events);
    EXPECT_EQ(a.eq.fired(), b.eq.fired());
    EXPECT_EQ(a.eq.now(), b.eq.now());
    ASSERT_EQ(a.order.size(), b.order.size());
    // operator== over the whole vectors would print nothing useful
    // on failure; report the first divergence point instead.
    for (std::size_t i = 0; i < events; ++i) {
        ASSERT_EQ(a.order[i], b.order[i])
            << "first divergence at firing #" << i;
        ASSERT_EQ(a.fire_ticks[i], b.fire_ticks[i])
            << "tick divergence at firing #" << i;
    }
}

using DelayFn = Tick (*)(Rng &);

const struct
{
    const char *name;
    DelayFn delay;
} kMixes[] = {{"mixed", mixedDelay},
              {"iommu-burst", iommuBurstDelay},
              {"uniform-horizon", uniformHorizonDelay}};

TEST(EventQueueDiff, MillionEventRandomScheduleFiresIdentically)
{
    // The ladder's buckets, lane and heap backstop against the one-tag
    // engine's single heap.
    constexpr std::uint64_t events = 1'200'000;
    for (const auto &mix : kMixes) {
        SCOPED_TRACE(mix.name);
        Driver ladder(0xbadc0ffe, events, mix.delay);
        Driver tagged(0xbadc0ffe, events, mix.delay, /*tagged=*/true);
        ladder.run();
        tagged.run();
        expectSameFiring(ladder, tagged, events);
    }
}

TEST(EventQueueDiff, OneTagTaggedEngineFiresInLegacyOrder)
{
    // Both users of the shared 4-ary heap must agree: the legacy queue
    // on (when, seq) and a single-tag TaggedEngine on (when, birth,
    // key), where birth and key both grow in scheduling order.
    constexpr std::uint64_t events = 300'000;
    for (const auto &mix : kMixes) {
        SCOPED_TRACE(mix.name);
        Driver legacy(0x5eed, events, mix.delay);
        Driver tagged(0x5eed, events, mix.delay, /*tagged=*/true);
        legacy.run();
        tagged.run();
        expectSameFiring(legacy, tagged, events);
    }
}

/**
 * Schedule one event per entry of @p ticks on @p eq, in order; each
 * appends its schedule index to @p fired. @return the reference order:
 * schedule indices stably sorted by tick.
 */
std::vector<std::uint32_t>
schedulePreloaded(EventQueue &eq, const std::vector<Tick> &ticks,
                  std::vector<std::uint32_t> &fired)
{
    std::vector<std::uint32_t> ref(ticks.size());
    for (std::uint32_t i = 0; i < ticks.size(); ++i) {
        eq.schedule(ticks[i], [&fired, i]() { fired.push_back(i); });
        ref[i] = i;
    }
    std::stable_sort(ref.begin(), ref.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                         return ticks[a] < ticks[b];
                     });
    return ref;
}

TEST(EventQueueDiff, PreloadedMixedDelaysFireInIdenticalOrder)
{
    // All events scheduled up front (no feedback loop), including
    // heavy same-tick ties: FIFO-within-tick must hold.
    EventQueue eq;
    std::vector<std::uint32_t> fired;
    std::vector<Tick> ticks;
    Rng rng(7);
    for (std::uint32_t i = 0; i < 50000; ++i)
        ticks.push_back(rng.below(2048)); // dense → many ties
    const std::vector<std::uint32_t> ref =
        schedulePreloaded(eq, ticks, fired);
    eq.run();
    EXPECT_TRUE(fired == ref);
    EXPECT_EQ(eq.now(), *std::max_element(ticks.begin(), ticks.end()));
}

TEST(EventQueueDiff, RepeatedDrainsAgreeAcrossModes)
{
    // Schedule a batch relative to the current clock, drain, repeat:
    // the clock, the fired count and the order must match the sorted
    // reference after every drain, including same-tick events added
    // at the old now().
    EventQueue eq;
    std::vector<std::uint32_t> fired;
    Rng rng(99);
    std::uint64_t total = 0;
    for (int round = 0; round < 12; ++round) {
        const Tick base = eq.now();
        std::vector<Tick> ticks;
        for (int i = 0; i < 2000; ++i)
            ticks.push_back(base + rng.below(1000));
        fired.clear();
        const std::vector<std::uint32_t> ref =
            schedulePreloaded(eq, ticks, fired);
        total += ticks.size();
        eq.run();
        ASSERT_EQ(eq.now(), *std::max_element(ticks.begin(), ticks.end()))
            << "round " << round;
        ASSERT_EQ(eq.fired(), total) << "round " << round;
        ASSERT_TRUE(fired == ref) << "round " << round;
    }
    EXPECT_EQ(eq.pending(), 0u);
}

} // namespace
