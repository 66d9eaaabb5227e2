/**
 * @file
 * Differential proof of the conservative-PDES core (sim/domain.hh): the
 * same tagged schedule fires in the same order — per-tag ticks, per-tag
 * rng streams, firing digests — no matter how tags are grouped into
 * domains or how many threads advance them. Plus the staged-arbitration
 * replay (shared-link wire state matches serial bitwise, and epochs
 * whose earliest pending item is a staged arbitrated send keep the
 * one-domain epoch sequence), delays at and past the near window's
 * edge with cross-domain arrivals landing before a domain's only
 * pending record, and the horizon audits (a cross-domain event or
 * arbitrated delivery inside the epoch horizon fires the invariant
 * instead of corrupting the run).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "harness/domain_scheduler.hh"
#include "sim/domain.hh"
#include "sim/event_queue.hh"
#include "sim/invariant.hh"
#include "sim/rng.hh"

using namespace barre;

namespace
{

constexpr std::size_t kTags = 5; // host + 4 chiplets
constexpr Tick kLinkDelay = 33;  // >= lookahead: crossings stay legal
constexpr Tick kWindow = EventQueue::kWindow;

/** Delays a tag gives its own successors. */
enum class Mix
{
    /** Short hops only: everything stays inside the near window. */
    short_hops,
    /**
     * The host keeps short hops; the chiplet tags mostly wait at or
     * past the window's edge (W - 1 .. 4W), so their domains often hold
     * nothing but one record past the epoch horizon while cross-domain
     * arrivals land before it.
     */
    window_edges,
};

/** Per-tag firing record; each is only written from its own tag's
 *  execution context, so parallel runs need no synchronization. */
struct TagRec
{
    std::vector<Tick> ticks;
    std::vector<std::uint64_t> ids;
};

/**
 * A self-perpetuating random tagged workload. Every fired event records
 * its tick and a draw from its tag's private rng, then spawns a mix of
 * same-tag and cross-tag successors. Decisions are made with per-tag
 * rng streams: they stay in lockstep across partitionings exactly iff
 * the per-tag firing order is partition-independent — any ordering
 * divergence desynchronizes the streams and cascades into a mismatch.
 */
struct DiffDriver
{
    EventQueue eq;
    std::vector<Rng> rngs;
    std::vector<TagRec> rec;
    std::vector<std::uint64_t> budget;
    Mix mix;

    DiffDriver(const std::vector<std::uint32_t> &tag_domain,
               std::uint32_t domains, std::uint64_t per_tag,
               Mix mix = Mix::short_hops)
        : rec(kTags), budget(kTags, per_tag), mix(mix)
    {
        for (std::size_t t = 0; t < kTags; ++t)
            rngs.emplace_back(0xb0ba + t);
        eq.enableTags(tag_domain, domains);
    }

    void
    fire(SeqTag t)
    {
        rec[t].ticks.push_back(eq.now());
        rec[t].ids.push_back(rngs[t].next());
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
                eq.scheduleAfter(localDelay(t), [this, t]() { fire(t); });
            }
        }
    }

    Tick
    localDelay(SeqTag t)
    {
        Rng &rng = rngs[t];
        if (mix == Mix::short_hops || t == kHostTag)
            return rng.below(128);
        switch (rng.below(8)) {
          case 0:
            return 0;
          case 1:
            return rng.below(128);
          case 2:
          case 3:
            return kWindow - 1 + rng.below(3); // the window's edge
          default:
            return kWindow + rng.below(3 * kWindow + 1);
        }
    }

    std::uint64_t
    run(unsigned threads)
    {
        for (std::size_t t = 0; t < kTags; ++t) {
            EventQueue::TagScope scope(eq, static_cast<SeqTag>(t));
            for (int i = 0; i < 4; ++i) {
                const SeqTag tag = static_cast<SeqTag>(t);
                eq.schedule(t * 7 + i, [this, tag]() { fire(tag); });
            }
        }
        return DomainScheduler::run(eq, kLinkDelay, threads);
    }
};

void
expectIdentical(const DiffDriver &a, const DiffDriver &b)
{
    EXPECT_EQ(a.eq.fired(), b.eq.fired());
    EXPECT_EQ(a.eq.now(), b.eq.now());
    EXPECT_TRUE(a.eq.fireDigests() ==
                b.eq.fireDigests());
    for (std::size_t t = 0; t < kTags; ++t) {
        ASSERT_EQ(a.rec[t].ticks.size(), b.rec[t].ticks.size())
            << "tag " << t;
        for (std::size_t i = 0; i < a.rec[t].ticks.size(); ++i) {
            ASSERT_EQ(a.rec[t].ticks[i], b.rec[t].ticks[i])
                << "tag " << t << " firing #" << i;
            ASSERT_EQ(a.rec[t].ids[i], b.rec[t].ids[i])
                << "tag " << t << " firing #" << i;
        }
    }
}

const std::vector<std::uint32_t> kOneDomain{0, 0, 0, 0, 0};
const std::vector<std::uint32_t> kTwoDomains{0, 1, 1, 1, 1};
const std::vector<std::uint32_t> kFourDomains{0, 1, 2, 3, 1};
const std::vector<std::uint32_t> kFiveDomains{0, 1, 2, 3, 4};

TEST(DomainQueueDiff, FiringOrderIsPartitionIndependent)
{
    constexpr std::uint64_t per_tag = 4000;
    DiffDriver ref(kOneDomain, 1, per_tag);
    ref.run(1);
    ASSERT_GT(ref.eq.fired(), per_tag);

    DiffDriver two(kTwoDomains, 2, per_tag);
    two.run(1);
    expectIdentical(ref, two);

    DiffDriver four(kFourDomains, 4, per_tag);
    four.run(1);
    expectIdentical(ref, four);

    DiffDriver five(kFiveDomains, 5, per_tag);
    five.run(1);
    expectIdentical(ref, five);
}

TEST(DomainQueueDiff, FiringOrderIsThreadCountIndependent)
{
    constexpr std::uint64_t per_tag = 4000;
    DiffDriver serial(kFiveDomains, 5, per_tag);
    serial.run(1);
    DiffDriver threaded(kFiveDomains, 5, per_tag);
    threaded.run(5);
    expectIdentical(serial, threaded);
}

TEST(DomainQueueDiff, WindowEdgesAndLateArrivalsArePartitionIndependent)
{
    // Chiplet domains whose only pending record lies past the epoch
    // horizon receive staged arrivals that land before it; the window
    // must not have moved on to that record when it was only peeked.
    constexpr std::uint64_t per_tag = 3000;
    DiffDriver ref(kOneDomain, 1, per_tag, Mix::window_edges);
    ref.run(1);
    ASSERT_GT(ref.eq.fired(), per_tag);
    ASSERT_GT(ref.eq.now(), 4 * kWindow);

    for (const auto &[plan, domains] :
         {std::pair{kTwoDomains, 2u}, std::pair{kFourDomains, 4u},
          std::pair{kFiveDomains, 5u}}) {
        SCOPED_TRACE(domains);
        DiffDriver split(plan, domains, per_tag, Mix::window_edges);
        split.run(1);
        expectIdentical(ref, split);
    }
    DiffDriver threaded(kFiveDomains, 5, per_tag, Mix::window_edges);
    threaded.run(5);
    expectIdentical(ref, threaded);
}

TEST(DomainQueueDiff, StagedArrivalsLandBeforeAPeekedFarRecord)
{
    // Domain 1's only record is past the first epoch's horizon, once
    // on the far heap and once inside the window; the host's staged
    // sends land before it, at the window's edge and past it.
    for (const Tick lone : {Tick{3 * kWindow}, Tick{500}}) {
        SCOPED_TRACE(lone);
        EventQueue eq;
        eq.enableTags({0, 1}, 2);
        std::vector<Tick> fired;
        {
            EventQueue::TagScope scope(eq, 1);
            eq.schedule(lone, [&] { fired.push_back(eq.now()); });
        }
        {
            EventQueue::TagScope scope(eq, kHostTag);
            eq.schedule(0, [&] {
                for (const Tick at : {Tick{40}, Tick{kWindow - 1},
                                      Tick{kWindow}, Tick{kWindow + 40}})
                    eq.scheduleCross(1, at,
                                     [&] { fired.push_back(eq.now()); });
            });
        }
        DomainScheduler::run(eq, kLinkDelay, 1);
        std::vector<Tick> want{40, kWindow - 1, kWindow, kWindow + 40,
                               lone};
        std::sort(want.begin(), want.end());
        EXPECT_EQ(fired, want);
    }
}

/** A contended shared wire: arbitration must replay in the exact order
 *  a serial run would have hit it, whatever the partitioning. */
struct FakeWire : ArbHook
{
    Tick free = 0;
    Tick
    arbitrate(Tick sent, std::uint64_t bytes) override
    {
        const Tick start = std::max(sent, free);
        free = start + bytes;
        return free + 40; // latency 40 >= lookahead 33
    }
    Tick
    lowerBound(Tick sent, std::uint64_t bytes) const override
    {
        return std::max(sent, free) + bytes + 40;
    }
};

struct ArbDriver
{
    EventQueue eq;
    FakeWire wire;
    std::vector<Rng> rngs;
    TagRec arrivals; // host-side record: single-writer (tag 0)

    ArbDriver(const std::vector<std::uint32_t> &tag_domain,
              std::uint32_t domains)
    {
        for (std::size_t t = 0; t < 3; ++t)
            rngs.emplace_back(0xcafe + t);
        eq.enableTags(tag_domain, domains);
    }

    void
    sendBurst(SeqTag t, int remaining)
    {
        const std::uint64_t bytes = 1 + rngs[t].below(32);
        eq.stageArb(kHostTag, wire, bytes, [this, t, bytes]() {
            arrivals.ticks.push_back(eq.now());
            arrivals.ids.push_back((std::uint64_t(t) << 32) | bytes);
        });
        if (remaining > 0) {
            eq.scheduleAfter(rngs[t].below(16), [this, t, remaining]() {
                sendBurst(t, remaining - 1);
            });
        }
    }

    void
    run(unsigned threads)
    {
        for (SeqTag t = 1; t <= 2; ++t) {
            EventQueue::TagScope scope(eq, t);
            eq.schedule(t, [this, t]() { sendBurst(t, 400); });
        }
        DomainScheduler::run(eq, 33, threads);
    }
};

TEST(DomainQueueDiff, SharedArbitrationReplaysInSerialOrder)
{
    ArbDriver serial({0, 0, 0}, 1);
    serial.run(1);
    ASSERT_EQ(serial.arrivals.ticks.size(), 802u);

    ArbDriver split({0, 1, 2}, 3);
    split.run(3);
    // Pinned, so a looser bound on staged arbitrated arrivals cannot
    // add epochs unnoticed; one domain runs the same epochs.
    EXPECT_EQ(split.eq.epochs(), 320u);
    EXPECT_EQ(serial.eq.epochs(), split.eq.epochs());
    EXPECT_EQ(serial.wire.free, split.wire.free);
    ASSERT_EQ(serial.arrivals.ticks.size(), split.arrivals.ticks.size());
    for (std::size_t i = 0; i < serial.arrivals.ticks.size(); ++i) {
        ASSERT_EQ(serial.arrivals.ticks[i], split.arrivals.ticks[i])
            << "arrival #" << i;
        ASSERT_EQ(serial.arrivals.ids[i], split.arrivals.ids[i])
            << "arrival #" << i;
    }
    EXPECT_TRUE(serial.eq.fireDigests() ==
                split.eq.fireDigests());
}

TEST(DomainQueueDiff, FirstStagedOpInReplayOrderSetsTheHorizon)
{
    // Both chiplets send over the idle wire at tick 10: tag 1's 24-byte
    // op sorts first and arrives at 74; tag 2's 1-byte op queues behind
    // it (arrives at 75), though on the wire at the barrier it alone
    // would arrive at 51. Staged, they are the earliest pending items
    // when the first epoch [10, 43) ends. The next epoch must start at
    // 74, as one domain's does, so it also fires tag 1's own event at
    // 90; starting at 51 would leave that event to a third epoch.
    struct Out
    {
        std::uint64_t epochs;
        std::vector<Tick> fired;
    };
    auto run = [](const std::vector<std::uint32_t> &plan,
                  std::uint32_t domains, unsigned threads) {
        EventQueue eq;
        eq.enableTags(plan, domains);
        FakeWire wire;
        std::vector<Tick> at; // host-side record
        Tick local = 0;       // tag 1's record
        for (SeqTag t = 1; t <= 2; ++t) {
            EventQueue::TagScope scope(eq, t);
            eq.schedule(10, [&, t] {
                eq.stageArb(kHostTag, wire, t == 1 ? 24 : 1,
                            [&] { at.push_back(eq.now()); });
            });
        }
        {
            EventQueue::TagScope scope(eq, 1);
            eq.schedule(90, [&] { local = eq.now(); });
        }
        DomainScheduler::run(eq, 33, threads);
        at.push_back(local);
        return Out{eq.epochs(), at};
    };
    const Out ref = run({0, 0, 0}, 1, 1);
    EXPECT_EQ(ref.epochs, 2u);
    EXPECT_EQ(ref.fired, (std::vector<Tick>{74, 75, 90}));
    for (const auto &[plan, domains] :
         {std::pair{std::vector<std::uint32_t>{0, 0, 0}, 1u},
          std::pair{std::vector<std::uint32_t>{0, 1, 2}, 3u}}) {
        for (const unsigned threads : {1u, 2u, 3u}) {
            SCOPED_TRACE(testing::Message()
                         << domains << " domains, " << threads
                         << " threads");
            const Out got = run(plan, domains, threads);
            EXPECT_EQ(got.epochs, ref.epochs);
            EXPECT_EQ(got.fired, ref.fired);
        }
    }
}

TEST(DomainQueueAudit, CrossDomainEventInsideHorizonFires)
{
    if (!invariants_enabled)
        GTEST_SKIP() << "horizon audit needs BARRE_CHECK_INVARIANTS";
    EventQueue eq;
    eq.enableTags({0, 1}, 2);
    EventQueue *eng = &eq;
    eng->setRunning(true);
    eng->beginEpoch(100);
    EventQueue::TagScope scope(eq, kHostTag);
    // Tick 50 is inside the epoch [0, 100): a real link could never
    // deliver this early, so the lookahead audit must refuse it.
    EXPECT_THROW(eq.scheduleCross(1, 50, []() {}), std::logic_error);
    // At the horizon is legal (arrivals land at or beyond it).
    eq.scheduleCross(1, 100, []() {});
    eng->setRunning(false);
}

TEST(DomainQueueAudit, ArbitratedDeliveryInsideHorizonFires)
{
    if (!invariants_enabled)
        GTEST_SKIP() << "horizon audit needs BARRE_CHECK_INVARIANTS";
    EventQueue eq;
    eq.enableTags({0, 1}, 2);
    FakeWire wire;
    {
        EventQueue::TagScope scope(eq, 1);
        eq.schedule(0, [&] { eq.stageArb(kHostTag, wire, 1, []() {}); });
    }
    // Sent at tick 0, the wire delivers at tick 41, inside the first
    // epoch [0, 100) of a run whose lookahead overstates the wire's:
    // the host domain's drain must refuse it rather than fire it late.
    EXPECT_THROW(DomainScheduler::run(eq, 100, 1), std::logic_error);
}

TEST(DomainQueueAudit, ThrowingEpochStepEndsTheRunOnEveryThreadCount)
{
    // The barrier's last arriver bounds the staged op through the hook;
    // when that throws, the peers waiting at the barrier must be
    // released and the run must rethrow, not hang.
    struct BrokenWire : FakeWire
    {
        Tick
        lowerBound(Tick, std::uint64_t) const override
        {
            throw std::logic_error("broken bound");
        }
    };
    for (const unsigned threads : {1u, 2u, 3u}) {
        SCOPED_TRACE(threads);
        EventQueue eq;
        eq.enableTags({0, 1, 2}, 3);
        BrokenWire wire;
        {
            EventQueue::TagScope scope(eq, 1);
            eq.schedule(0,
                        [&] { eq.stageArb(kHostTag, wire, 1, []() {}); });
        }
        EXPECT_THROW(DomainScheduler::run(eq, 33, threads),
                     std::logic_error);
    }
}

TEST(DomainQueueAudit, TaggedScheduleOutsideAnyContextFires)
{
    EventQueue eq;
    eq.enableTags({0, 1}, 2);
    EXPECT_THROW(eq.schedule(5, []() {}), std::logic_error);
}

TEST(DomainQueue, RunIsUnavailableInTaggedMode)
{
    EventQueue eq;
    eq.enableTags({0}, 1);
    EXPECT_THROW(eq.run(), std::logic_error);
}

} // namespace
