/**
 * @file
 * Differential proofs over the event engine. The slab-backed
 * EventQueue is checked against naive references that keep every
 * pending event in a plain vector and always fire its minimum: under
 * the (when, birth, key) order for a randomized self-scheduling
 * workload spread over several tags of one domain, with cross-tag
 * sends; under plain (when, seq) order for the same workload on one
 * tag; each under every delay mix (general, IOMMU-shaped,
 * uniform-horizon, and one straddling the near window's edge).
 * Preloaded schedules fire in the order of a stable sort of (tick,
 * schedule index), and same-birth pushes from a lower tag fire before
 * records already queued for their tick, near or far.
 */

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/domain.hh"
#include "sim/rng.hh"

using namespace barre;

namespace
{

/** Same-tick continuations, short hops, and long waits. */
Tick
mixedDelay(Rng &rng)
{
    switch (rng.below(8)) {
      case 0:
        return 0; // same tick
      case 1:
      case 2:
      case 3:
        return rng.below(256);
      case 4:
        return 255 + rng.below(3);
      case 5:
      case 6:
        return 256 + rng.below(4096);
      default:
        return rng.below(std::uint64_t{1} << 20);
    }
}

/**
 * The translation pipeline's mix: dense NoC/TLB/queue hops, same-tick
 * continuations, page-walk completions and rare fault services.
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

/** Uniform over a wide horizon: few same-tick ties. */
Tick
uniformHorizonDelay(Rng &rng)
{
    return rng.below(16384);
}

/**
 * Straddles the near window: same tick, inside it, and from its edge
 * out to four windows. Far records migrate into the window as the
 * clock moves, and buckets are reused as the window wraps.
 */
Tick
windowStraddleDelay(Rng &rng)
{
    constexpr Tick w = EventQueue::kWindow;
    switch (rng.below(4)) {
      case 0:
        return 0;
      case 1:
        return 1 + rng.below(w - 1);
      default:
        return w + rng.below(3 * w + 1);
    }
}

/**
 * The reference: every pending event in a plain vector, and each step
 * fires the minimum by brute force. It keeps the keys the engine
 * specifies — birth is the clock at scheduling, key is (scheduling tag
 * << 48 | that tag's counter) — or, with @c fifo, a plain global
 * scheduling sequence in their place.
 */
struct NaiveQueue
{
    struct Ev
    {
        Tick when;
        Tick birth;
        std::uint64_t key;
        SeqTag tag;
        std::function<void()> fn;
    };

    bool fifo = false;
    std::vector<Ev> pending;
    std::vector<std::uint64_t> ctr;
    std::uint64_t seq = 0;
    Tick clock = 0;
    SeqTag cur = kHostTag;
    std::uint64_t fired = 0;

    Tick now() const { return clock; }
    SeqTag tag() const { return cur; }

    void
    cross(SeqTag dst, Tick when, std::function<void()> fn)
    {
        if (ctr.size() <= cur)
            ctr.resize(cur + 1, 0);
        const std::uint64_t key =
            fifo ? ++seq : (std::uint64_t(cur) << 48) | ++ctr[cur];
        pending.push_back(Ev{when, fifo ? 0 : clock, key, dst,
                             std::move(fn)});
    }

    void
    after(Tick delay, std::function<void()> fn)
    {
        cross(cur, clock + delay, std::move(fn));
    }

    void
    run()
    {
        while (!pending.empty()) {
            auto it = std::min_element(
                pending.begin(), pending.end(),
                [](const Ev &a, const Ev &b) {
                    if (a.when != b.when)
                        return a.when < b.when;
                    if (a.birth != b.birth)
                        return a.birth < b.birth;
                    return a.key < b.key;
                });
            Ev e = std::move(*it);
            *it = std::move(pending.back());
            pending.pop_back();
            clock = e.when;
            cur = e.tag;
            e.fn();
            ++fired;
        }
        cur = kHostTag;
    }
};

/** The engine under test, behind the reference's interface. */
struct EngineQueue
{
    EventQueue eq;

    Tick now() const { return eq.now(); }
    SeqTag tag() const { return currentExecTag(); }
    std::uint64_t fired() const { return eq.fired(); }

    void
    cross(SeqTag dst, Tick when, std::function<void()> fn)
    {
        eq.scheduleCross(dst, when, std::move(fn));
    }

    void
    after(Tick delay, std::function<void()> fn)
    {
        eq.scheduleAfter(delay, std::move(fn));
    }

    void run() { eq.run(); }
};

/**
 * A self-perpetuating random workload over @p tags tags: every fired
 * event records its id, tick and tag and spawns one successor, plus a
 * second while fewer than kCap are outstanding; a quarter of them are
 * sent to a random tag. Both queues run the same seed; as long as
 * firing order matches, their Rng streams stay in lockstep, so any
 * divergence cascades into an order mismatch the test catches.
 */
template <class Q>
struct Driver
{
    static constexpr std::uint64_t kCap = 128;

    Q q;
    Rng rng;
    Tick (*delay)(Rng &);
    SeqTag tags;
    std::vector<std::uint64_t> order;
    std::vector<Tick> fire_ticks;
    std::vector<SeqTag> fire_tags;
    std::uint64_t next_id = 0;
    std::uint64_t target;

    Driver(std::uint64_t seed, std::uint64_t events, Tick (*delay)(Rng &),
           SeqTag tags)
        : rng(seed), delay(delay), tags(tags), target(events)
    {
        order.reserve(events);
        fire_ticks.reserve(events);
        fire_tags.reserve(events);
    }

    void
    spawn()
    {
        if (next_id >= target)
            return;
        const std::uint64_t id = next_id++;
        auto fire = [this, id]() {
            order.push_back(id);
            fire_ticks.push_back(q.now());
            fire_tags.push_back(q.tag());
            spawn();
            if (next_id - order.size() < kCap && rng.below(2) == 0)
                spawn();
        };
        const Tick d = delay(rng);
        if (tags > 1 && rng.below(4) == 0) {
            const SeqTag dst = static_cast<SeqTag>(rng.below(tags));
            q.cross(dst, q.now() + d, fire);
        } else {
            q.after(d, fire);
        }
    }

    void
    run()
    {
        for (std::uint64_t i = 0; i < kCap / 2; ++i)
            spawn();
        q.run();
    }
};

/** Assert @p a and @p b fired the same ids at the same ticks. */
template <class A, class B>
void
expectSameFiring(const A &a, const B &b, std::uint64_t events)
{
    ASSERT_EQ(a.order.size(), events);
    EXPECT_EQ(a.q.fired(), b.q.fired);
    EXPECT_EQ(a.q.now(), b.q.now());
    ASSERT_EQ(a.order.size(), b.order.size());
    // operator== over the whole vectors would print nothing useful
    // on failure; report the first divergence point instead.
    for (std::size_t i = 0; i < events; ++i) {
        ASSERT_EQ(a.order[i], b.order[i])
            << "first divergence at firing #" << i;
        ASSERT_EQ(a.fire_ticks[i], b.fire_ticks[i])
            << "tick divergence at firing #" << i;
        ASSERT_EQ(a.fire_tags[i], b.fire_tags[i])
            << "tag divergence at firing #" << i;
    }
}

using DelayFn = Tick (*)(Rng &);

const struct
{
    const char *name;
    DelayFn delay;
} kMixes[] = {{"mixed", mixedDelay},
              {"iommu-burst", iommuBurstDelay},
              {"uniform-horizon", uniformHorizonDelay},
              {"window-straddle", windowStraddleDelay}};

TEST(EventQueueDiff, MillionEventRandomScheduleFiresIdentically)
{
    // Five tags in one domain, with cross-tag sends: the slab-backed
    // heap against the brute-force (when, birth, key) minimum.
    constexpr std::uint64_t events = 1'200'000;
    for (const auto &mix : kMixes) {
        SCOPED_TRACE(mix.name);
        Driver<EngineQueue> engine(0xbadc0ffe, events, mix.delay, 5);
        Driver<NaiveQueue> naive(0xbadc0ffe, events, mix.delay, 5);
        engine.run();
        naive.run();
        expectSameFiring(engine, naive, events);
    }
}

TEST(EventQueueDiff, OneTagTaggedEngineFiresInLegacyOrder)
{
    // With a single tag, (when, birth, key) reduces to (when, seq):
    // same-tick events fire in scheduling order.
    constexpr std::uint64_t events = 300'000;
    for (const auto &mix : kMixes) {
        SCOPED_TRACE(mix.name);
        Driver<EngineQueue> engine(0x5eed, events, mix.delay, 1);
        Driver<NaiveQueue> naive(0x5eed, events, mix.delay, 1);
        naive.q.fifo = true;
        engine.run();
        naive.run();
        expectSameFiring(engine, naive, events);
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

TEST(EventQueueDiff, SameBirthLowerTagGoesBeforeQueuedRecords)
{
    // At tick 10, tag 4's event (born 0) fires before tag 1's (born
    // 5). Each schedules one record per target tick, born 10. Tag 1's
    // key is lower, so its record fires first at every target although
    // it was pushed later: near, at the window's last tick and its
    // first far tick, and from the far heap.
    constexpr Tick w = EventQueue::kWindow;
    const std::vector<Tick> targets{10, 11, 10 + w - 1, 10 + w,
                                    10 + 3 * w};
    EventQueue eq;
    std::vector<std::pair<Tick, SeqTag>> fired;
    auto send = [&](SeqTag from, Tick birth) {
        EventQueue::TagScope scope(eq, from);
        eq.schedule(birth, [&] {
            eq.schedule(10, [&] {
                for (const Tick t : targets) {
                    eq.schedule(t, [&] {
                        fired.emplace_back(eq.now(), currentExecTag());
                    });
                }
            });
        });
    };
    send(4, 0);
    send(1, 5);
    eq.run();
    std::vector<std::pair<Tick, SeqTag>> want;
    for (const Tick t : targets) {
        want.emplace_back(t, 1);
        want.emplace_back(t, 4);
    }
    EXPECT_EQ(fired, want);
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
