/**
 * @file
 * Stress proofs for the epoch scheduler that the uniform-delay
 * differential tests (domain_queue_test.cc) cannot reach:
 *
 *  - Heterogeneous links: every directed tag pair gets its own
 *    randomized link delay — including delay-1 links, the tightest
 *    legal conservative bound — and each partitioning's lookahead is
 *    derived exactly as the System derives it (the minimum delay over
 *    the links that cross a domain boundary). The firing order must
 *    stay bitwise identical to the one-domain reference across
 *    partitionings and thread counts.
 *
 *  - Failure propagation: a domain-ownership panic thrown inside an
 *    event executing on a worker thread must unwind cleanly — release
 *    every peer waiting at the epoch barrier and rethrow from
 *    DomainScheduler::run — not hang the barrier or vanish on a
 *    worker.
 *
 *  - Concurrent runs: two partitioned runs in one process, each on
 *    worker threads of its own, must both complete (no deadlock
 *    between their epoch barriers) and match the serial schedule.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness/domain_scheduler.hh"
#include "sim/domain.hh"
#include "sim/domain_guard.hh"
#include "sim/rng.hh"
#include "tlb/tlb.hh"

using namespace barre;

namespace
{

constexpr std::size_t kTags = 5; // host + 4 chiplets

/**
 * Directed per-tag-pair link delays, randomized but deterministic.
 * These play the role the NoC/PCIe/shared-TLB links play in the real
 * System: every cross-tag message takes at least its link's delay, so
 * the event schedule is fixed while the lookahead — the minimum delay
 * of any link crossing a domain boundary — changes with the
 * partitioning.
 */
struct LinkMatrix
{
    Tick delay[kTags][kTags] = {};

    LinkMatrix()
    {
        Rng r(0x715a);
        for (std::size_t s = 0; s < kTags; ++s)
            for (std::size_t t = 0; t < kTags; ++t)
                delay[s][t] = s == t ? 0 : 1 + r.below(40);
        // Force delay-1 links: the minimum legal conservative bound,
        // where every epoch is one tick wide and every cross send
        // lands right at the horizon.
        delay[0][1] = 1;
        delay[3][0] = 1;
    }

    /** Minimum delay over the links @p tag_domain splits. */
    Tick
    lookahead(const std::vector<std::uint32_t> &tag_domain) const
    {
        Tick m = max_tick;
        for (std::size_t s = 0; s < kTags; ++s)
            for (std::size_t t = 0; t < kTags; ++t)
                if (tag_domain[s] != tag_domain[t])
                    m = std::min(m, delay[s][t]);
        return m == max_tick ? 1 : m;
    }
};

/** Per-tag firing record (single writer: the tag's own context). */
struct TagRec
{
    std::vector<Tick> ticks;
    std::vector<std::uint64_t> ids;
};

/**
 * The domain_queue_test DiffDriver, rebuilt on heterogeneous links:
 * cross-tag sends are delayed by the *link's* delay (plus jitter), so
 * the schedule is partition-independent, while each run's lookahead
 * is the per-partitioning minimum of those delays.
 */
struct HeteroDriver
{
    EventQueue eq;
    const LinkMatrix &links;
    std::vector<Rng> rngs;
    std::vector<TagRec> rec;
    std::vector<std::uint64_t> budget;
    Tick lookahead;

    HeteroDriver(const LinkMatrix &lm,
                 const std::vector<std::uint32_t> &tag_domain,
                 std::uint32_t domains, std::uint64_t per_tag)
        : links(lm), rec(kTags), budget(kTags, per_tag),
          lookahead(lm.lookahead(tag_domain))
    {
        for (std::size_t t = 0; t < kTags; ++t)
            rngs.emplace_back(0x5eed + t);
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
                // The link's delay lower-bounds the delivery, so the
                // send lands at or beyond the epoch horizon whatever
                // lookahead this run's partitioning derived.
                eq.scheduleCross(dst,
                                 eq.now() + links.delay[t][dst] +
                                     rngs[t].below(24),
                                 [this, dst]() { fire(dst); });
            } else {
                eq.scheduleAfter(rngs[t].below(96),
                                 [this, t]() { fire(t); });
            }
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
        return DomainScheduler::run(eq, lookahead, threads);
    }
};

void
expectIdentical(const HeteroDriver &a, const HeteroDriver &b,
                const std::string &what)
{
    EXPECT_EQ(a.eq.fired(), b.eq.fired()) << what;
    EXPECT_EQ(a.eq.now(), b.eq.now()) << what;
    EXPECT_TRUE(a.eq.fireDigests() ==
                b.eq.fireDigests())
        << what;
    for (std::size_t t = 0; t < kTags; ++t) {
        ASSERT_EQ(a.rec[t].ticks.size(), b.rec[t].ticks.size())
            << what << " tag " << t;
        for (std::size_t i = 0; i < a.rec[t].ticks.size(); ++i) {
            ASSERT_EQ(a.rec[t].ticks[i], b.rec[t].ticks[i])
                << what << " tag " << t << " firing #" << i;
            ASSERT_EQ(a.rec[t].ids[i], b.rec[t].ids[i])
                << what << " tag " << t << " firing #" << i;
        }
    }
}

const std::vector<std::uint32_t> kOneDomain{0, 0, 0, 0, 0};
const std::vector<std::uint32_t> kTwoDomains{0, 1, 1, 1, 1};
const std::vector<std::uint32_t> kFourDomains{0, 1, 2, 3, 1};
const std::vector<std::uint32_t> kFiveDomains{0, 1, 2, 3, 4};

TEST(PdesStress, HeterogeneousLinkDelaysStayBitwiseIdentical)
{
    constexpr std::uint64_t per_tag = 1500;
    const LinkMatrix links;

    HeteroDriver ref(links, kOneDomain, 1, per_tag);
    ref.run(1);
    ASSERT_GT(ref.eq.fired(), per_tag);

    struct Split
    {
        const std::vector<std::uint32_t> *map;
        std::uint32_t domains;
    };
    const Split splits[] = {{&kTwoDomains, 2},
                            {&kFourDomains, 4},
                            {&kFiveDomains, 5}};
    for (const Split &sp : splits) {
        // Every partitioning splits a delay-1 link.
        ASSERT_EQ(links.lookahead(*sp.map), 1u);
        for (unsigned threads : {1u, 4u}) {
            HeteroDriver got(links, *sp.map, sp.domains, per_tag);
            got.run(threads);
            expectIdentical(ref, got,
                            "domains=" + std::to_string(sp.domains) +
                                " threads=" + std::to_string(threads));
        }
    }
}

/** Minimal self-perpetuating tagged workload (domain_queue_test's
 *  DiffDriver, shrunk to what a digest comparison needs). */
struct SmallDriver
{
    static constexpr Tick kLinkDelay = 33;

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
        return eq.fireDigests();
    }
};

TEST(PdesStress, ConcurrentPartitionedRunsStayIdentical)
{
    constexpr std::uint64_t per_tag = 1500;
    SmallDriver ref(per_tag);
    const std::vector<std::uint64_t> want = ref.run(1);

    // Two partitioned runs at once, each spawning its own workers:
    // both must complete (no deadlock between their epoch barriers)
    // and match the serial schedule.
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
}

/**
 * A self-perpetuating background load on every tag plus one poisoned
 * event: an access to a component owned by chiplet 0's tag made from
 * chiplet 1's execution context. The domain guard must panic inside
 * the worker thread that fires the event, and the panic must surface
 * as DomainScheduler::run throwing, with every other worker released
 * from the epoch barrier — not hang or die silently on a detached
 * thread.
 */
struct PanicDriver
{
    EventQueue eq;
    DomainGuard guard;
    Tlb tlb;
    std::vector<Rng> rngs;
    std::vector<std::uint64_t> budget;

    PanicDriver()
        : tlb(TlbParams{}), budget(kTags, 2000)
    {
        for (std::size_t t = 0; t < kTags; ++t)
            rngs.emplace_back(0xdead + t);
        eq.enableTags(kFiveDomains, 5);
        guard.setMode(DomainAuditMode::panic);
        tlb.bindDomain(&guard, chipletTag(0), "gpu0.l2tlb");
    }

    void
    churn(SeqTag t)
    {
        if (budget[t] == 0)
            return;
        --budget[t];
        if (rngs[t].below(4) == 0) {
            const SeqTag dst = static_cast<SeqTag>(rngs[t].below(kTags));
            eq.scheduleCross(dst, eq.now() + 40 + rngs[t].below(32),
                             [this, dst]() { churn(dst); });
        } else {
            eq.scheduleAfter(1 + rngs[t].below(16),
                             [this, t]() { churn(t); });
        }
    }

    void
    run(unsigned threads)
    {
        for (std::size_t t = 0; t < kTags; ++t) {
            EventQueue::TagScope scope(eq, static_cast<SeqTag>(t));
            eq.schedule(t, [this, t]() {
                churn(static_cast<SeqTag>(t));
            });
        }
        {
            // The poison: fires as chiplet 1's tag mid-run and touches
            // chiplet 0's TLB synchronously.
            EventQueue::TagScope scope(eq, chipletTag(1));
            eq.schedule(500, [this]() { tlb.peek(1, 0); });
        }
        DomainScheduler::run(eq, 40, threads);
    }
};

TEST(PdesStress, GuardPanicPropagatesOutOfWorkerThreads)
{
    for (unsigned threads : {1u, 5u}) {
        PanicDriver driver;
        EXPECT_THROW(driver.run(threads), std::logic_error)
            << "threads=" << threads;
    }
}

} // namespace
