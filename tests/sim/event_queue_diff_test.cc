/**
 * @file
 * Differential proofs over the event engines. The calendar-front
 * EventQueue (QueueMode::ladder) is observationally identical to the
 * pure-heap queue: the same randomized schedule fires in the same order
 * at the same ticks under every delay mix (general, IOMMU-shaped,
 * uniform-horizon), and a full-system run produces bitwise-identical
 * RunMetrics either way. A one-tag, one-domain TaggedEngine fires the
 * same schedule in the same order too: with a single tag its
 * (when, birth, key) order reduces to the legacy (when, seq).
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "harness/domain_scheduler.hh"
#include "harness/experiment.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "workloads/suite.hh"

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

    Driver(QueueMode mode, std::uint64_t seed, std::uint64_t events,
           Tick (*delay)(Rng &), bool tagged = false)
        : eq(mode), rng(seed), delay(delay), target(events)
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
    constexpr std::uint64_t events = 1'200'000;
    for (const auto &mix : kMixes) {
        SCOPED_TRACE(mix.name);
        Driver ladder(QueueMode::ladder, 0xbadc0ffe, events, mix.delay);
        Driver heap(QueueMode::heap_only, 0xbadc0ffe, events, mix.delay);
        ladder.run();
        heap.run();
        expectSameFiring(ladder, heap, events);
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
        Driver legacy(QueueMode::ladder, 0x5eed, events, mix.delay);
        Driver tagged(QueueMode::ladder, 0x5eed, events, mix.delay,
                      /*tagged=*/true);
        legacy.run();
        tagged.run();
        expectSameFiring(legacy, tagged, events);
    }
}

TEST(EventQueueDiff, PreloadedMixedDelaysFireInIdenticalOrder)
{
    // All events scheduled up front (no feedback loop), including
    // heavy same-tick ties: FIFO-within-tick must match across modes.
    EventQueue ladder(QueueMode::ladder);
    EventQueue heap(QueueMode::heap_only);
    std::vector<std::uint32_t> order_a, order_b;
    Rng rng(7);
    for (std::uint32_t i = 0; i < 50000; ++i) {
        const Tick when = rng.below(2048); // dense → many ties
        ladder.schedule(when, [&order_a, i]() { order_a.push_back(i); });
        heap.schedule(when, [&order_b, i]() { order_b.push_back(i); });
    }
    ladder.run();
    heap.run();
    ASSERT_EQ(order_a.size(), order_b.size());
    EXPECT_TRUE(order_a == order_b);
    EXPECT_EQ(ladder.now(), heap.now());
}

TEST(EventQueueDiff, RepeatedDrainsAgreeAcrossModes)
{
    // Schedule a batch relative to the current clock, drain, repeat:
    // the clock, the fired count and the order must agree after every
    // drain, including same-tick events added at the old now().
    EventQueue ladder(QueueMode::ladder);
    EventQueue heap(QueueMode::heap_only);
    std::vector<std::uint32_t> order_a, order_b;
    Rng rng(99);
    std::uint32_t id = 0;
    for (int round = 0; round < 12; ++round) {
        const Tick base = ladder.now();
        for (int i = 0; i < 2000; ++i, ++id) {
            const Tick when = base + rng.below(1000);
            ladder.schedule(when, [&order_a, id]() { order_a.push_back(id); });
            heap.schedule(when, [&order_b, id]() { order_b.push_back(id); });
        }
        ladder.run();
        heap.run();
        ASSERT_EQ(ladder.now(), heap.now()) << "round " << round;
        ASSERT_EQ(ladder.fired(), heap.fired()) << "round " << round;
        ASSERT_EQ(order_a.size(), order_b.size()) << "round " << round;
    }
    EXPECT_TRUE(order_a == order_b);
    EXPECT_EQ(ladder.pending(), 0u);
    EXPECT_EQ(heap.pending(), 0u);
}

TEST(EventQueueDiff, FullSystemRunMetricsAreBitwiseIdentical)
{
    // End-to-end: an F-Barre system (the config exercising the most
    // event machinery — NoC probes, filters, PEC calc, IOMMU walks)
    // must produce the exact same RunMetrics with the calendar front
    // on and off.
    SystemConfig cfg;
    cfg.mode = TranslationMode::fbarre;
    cfg.driver.merge_limit = 2;
    cfg.iommu.coal_aware_sched = true;
    cfg.workload_scale = 0.04;

    SystemConfig heap_cfg = cfg;
    heap_cfg.heap_only_queue = true;

    const ScenarioSpec spec = ScenarioSpec::solo("cov");
    RunMetrics ladder = runScenario(cfg, spec);
    RunMetrics heap = runScenario(heap_cfg, spec);
    // The config label differs only through fields that don't reach
    // RunMetrics; everything measured must match exactly.
    EXPECT_TRUE(ladder == heap);
    EXPECT_EQ(ladder.runtime, heap.runtime);
    EXPECT_EQ(ladder.sim_events, heap.sim_events);
}

} // namespace
