/**
 * @file
 * Differential proof that the calendar-front EventQueue (QueueMode::
 * ladder) is observationally identical to the pure-heap queue: the same
 * randomized schedule fires in the same order at the same ticks under
 * every delay mix (general, IOMMU-shaped, uniform-horizon), and a
 * full-system run produces bitwise-identical RunMetrics either way.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

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
           Tick (*delay)(Rng &))
        : eq(mode), rng(seed), delay(delay), target(events)
    {
        order.reserve(events);
        fire_ticks.reserve(events);
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
        for (int i = 0; i < 64; ++i)
            spawn();
        eq.run();
    }
};

TEST(EventQueueDiff, MillionEventRandomScheduleFiresIdentically)
{
    constexpr std::uint64_t events = 1'200'000;
    const struct
    {
        const char *name;
        Tick (*delay)(Rng &);
    } mixes[] = {{"mixed", mixedDelay},
                 {"iommu-burst", iommuBurstDelay},
                 {"uniform-horizon", uniformHorizonDelay}};
    for (const auto &mix : mixes) {
        SCOPED_TRACE(mix.name);
        Driver ladder(QueueMode::ladder, 0xbadc0ffe, events, mix.delay);
        Driver heap(QueueMode::heap_only, 0xbadc0ffe, events, mix.delay);
        ladder.run();
        heap.run();

        ASSERT_EQ(ladder.order.size(), events);
        EXPECT_EQ(ladder.eq.fired(), heap.eq.fired());
        EXPECT_EQ(ladder.eq.now(), heap.eq.now());
        ASSERT_EQ(ladder.order.size(), heap.order.size());
        // operator== over the whole vectors would print nothing useful
        // on failure; report the first divergence point instead.
        for (std::size_t i = 0; i < events; ++i) {
            ASSERT_EQ(ladder.order[i], heap.order[i])
                << "first divergence at firing #" << i;
            ASSERT_EQ(ladder.fire_ticks[i], heap.fire_ticks[i])
                << "tick divergence at firing #" << i;
        }
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

TEST(EventQueueDiff, RunUntilWindowsAgreeAcrossModes)
{
    EventQueue ladder(QueueMode::ladder);
    EventQueue heap(QueueMode::heap_only);
    std::vector<std::uint32_t> order_a, order_b;
    Rng rng(99);
    for (std::uint32_t i = 0; i < 20000; ++i) {
        const Tick when = rng.below(10000);
        ladder.schedule(when, [&order_a, i]() { order_a.push_back(i); });
        heap.schedule(when, [&order_b, i]() { order_b.push_back(i); });
    }
    // Drain in uneven runUntil() slices; the clamped clock and partial
    // drains must agree at every step.
    for (Tick until = 137; until < 11000; until += 997) {
        ladder.runUntil(until);
        heap.runUntil(until);
        ASSERT_EQ(ladder.now(), heap.now()) << "until=" << until;
        ASSERT_EQ(ladder.fired(), heap.fired()) << "until=" << until;
        ASSERT_EQ(order_a.size(), order_b.size()) << "until=" << until;
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
