/**
 * @file
 * A deterministic discrete-event queue with a hierarchical front.
 *
 * Events are closures scheduled at an absolute Tick. Events scheduled
 * for the same tick fire in scheduling order (a monotone sequence
 * number breaks ties), which keeps simulations reproducible across
 * runs and platforms.
 *
 * The queue is two-level. A *ladder* of per-tick FIFO buckets covers
 * the sliding near-future window (now, now + kWindow): scheduling into
 * the window is an O(1) push into bucket `when & (kWindow-1)`, and
 * almost all simulator traffic — TLB probe hand-offs, IOMMU walk-queue
 * hops, link hops — lands there. The 4-ary min-heap both engines share
 * (sim/quad_heap.hh) remains as the overflow backstop for far-future
 * events (DRAM/PCIe completions under congestion, coarse timeouts).
 * A FIFO fast lane holds events scheduled *at* the current tick; when
 * time advances to a bucket's tick, that bucket is swapped into the
 * lane wholesale, recycling the lane's storage, so bucket vectors are
 * allocated once and reused.
 *
 * Determinism: firing order is the exact total order (when, seq) no
 * matter which structure holds an event. The key property is that for
 * any tick T, routing of new events at T moves monotonically from heap
 * (T outside the window) to bucket (T inside) to lane (T == now) as
 * now advances — so every heap entry at T carries a smaller seq than
 * every bucket entry at T, and the existing lane-vs-heap tie-break
 * (fireNowOrTiedHeapTop) restores the global order after a bucket is
 * promoted into the lane. auditInvariants() checks this boundary.
 *
 * Event payloads are InlineFn (sim/inline_fn.hh): move-only callables
 * with a 48-byte inline buffer, so the common 2–3-pointer capture
 * schedules without any heap allocation.
 */

#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/domain.hh"
#include "sim/inline_fn.hh"
#include "sim/invariant.hh"
#include "sim/logging.hh"
#include "sim/quad_heap.hh"
#include "sim/types.hh"

namespace barre
{

/**
 * Queue implementation selector. `heap_only` disables the ladder front
 * (every future event goes through the 4-ary heap); it exists so tests
 * and benches can prove the ladder is performance-only — firing order
 * and RunMetrics are bitwise identical between the two modes.
 */
enum class QueueMode
{
    ladder,
    heap_only,
};

/**
 * Central event queue; one per simulated system.
 *
 * Usage:
 * @code
 *   EventQueue eq;
 *   eq.schedule(100, [] { ... });
 *   eq.run();          // until empty
 * @endcode
 */
class EventQueue
{
  public:
    using Callback = InlineFn<void()>;

    explicit EventQueue(QueueMode mode = QueueMode::ladder) : mode_(mode)
    {
        heap_.reserve(kReserve);
    }

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return tagged_ ? tagged_->now() : now_; }

    /** Implementation mode chosen at construction. */
    QueueMode mode() const { return mode_; }

    /** Number of events not yet fired. */
    std::size_t
    pending() const
    {
        if (tagged_)
            return tagged_->pending();
        return heap_.size() + bucket_count_ + (now_lane_.size() - now_head_);
    }

    bool
    empty() const
    {
        if (tagged_)
            return tagged_->empty();
        return heap_.empty() && bucket_count_ == 0 && nowLaneEmpty();
    }

    /** Total events fired over the queue's lifetime. */
    std::uint64_t
    fired() const
    {
        return tagged_ ? tagged_->fired() : fired_total_;
    }

    // -- partitioned (conservative-PDES) mode -------------------------

    /**
     * Switch this queue into partitioned mode: events carry sequencing
     * tags grouped into domains and fire in composite-key order (see
     * sim/domain.hh). Must be called before anything is scheduled.
     * run() becomes unavailable; the harness DomainScheduler drives
     * the epochs instead.
     */
    void
    enableTags(std::vector<std::uint32_t> tag_domain,
               std::uint32_t domains)
    {
        barre_assert(!tagged_ && now_ == 0 && fired_total_ == 0 &&
                         empty(),
                     "enableTags on a queue that has been used");
        tagged_ = std::make_unique<TaggedEngine>(std::move(tag_domain),
                                                 domains);
    }

    bool tagged() const { return tagged_ != nullptr; }

    /** The partitioned-mode engine, or nullptr in legacy mode. */
    TaggedEngine *taggedEngine() { return tagged_.get(); }
    const TaggedEngine *taggedEngine() const { return tagged_.get(); }

    /**
     * Schedule @p cb to execute as tag @p dst at tick @p when. Legacy
     * mode has only one sequence, but still stamps @p dst on the entry
     * so the domain-ownership audit sees the delivery execute under
     * the destination's tag (sim/domain_guard.hh).
     */
    void
    scheduleCross(SeqTag dst, Tick when, Callback cb)
    {
        if (tagged_) {
            tagged_->scheduleCross(dst, when, std::move(cb));
            return;
        }
        barre_assert(when >= now_,
                     "scheduling into the past (%llu < %llu)",
                     (unsigned long long)when, (unsigned long long)now_);
        scheduleTagged(when, dst, std::move(cb));
    }

    /**
     * Send through a shared resource owned by tag @p owner: resolve
     * @p hook 's arbitration in deterministic global order and deliver
     * @p cb at the resulting tick. Legacy mode arbitrates inline.
     * @return the delivery tick, or 0 when staged for the epoch
     *         barrier (partitioned multi-domain mode).
     */
    Tick
    stageArb(SeqTag owner, ArbHook &hook, std::uint64_t bytes,
             Callback cb)
    {
        if (tagged_)
            return tagged_->stageArb(owner, hook, bytes, std::move(cb));
        const Tick when = hook.arbitrate(now_, bytes);
        scheduleTagged(when, owner, std::move(cb));
        return when;
    }

    /**
     * RAII execution-context bracket for setup-time scheduling on
     * behalf of tag @p tag. Legacy mode only sets the thread's current
     * tag (for ownership attribution); the inner TaggedEngine scope
     * saved the full context and restores it on exit either way.
     */
    class TagScope
    {
      public:
        TagScope(EventQueue &eq, SeqTag tag)
            : scope_(eq.tagged_.get(), tag)
        {
            if (!eq.tagged_)
                detail::tls_exec.tag = tag;
        }

      private:
        TaggedEngine::TagScope scope_;
    };

    /**
     * Schedule @p cb to fire at absolute tick @p when.
     * @pre when >= now()
     */
    void
    schedule(Tick when, Callback cb)
    {
        if (tagged_) {
            tagged_->schedule(when, std::move(cb));
            return;
        }
        barre_assert(when >= now_,
                     "scheduling into the past (%llu < %llu)",
                     (unsigned long long)when, (unsigned long long)now_);
        scheduleTagged(when, detail::tls_exec.tag, std::move(cb));
    }

    /**
     * Schedule @p cb to fire @p delay cycles from now.
     *
     * Fast path: a relative delay can never land in the past, so the
     * range assert is skipped; zero-delay events go to the FIFO fast
     * lane and in-window delays to their ladder bucket, skipping the
     * heap entirely.
     */
    void
    scheduleAfter(Cycles delay, Callback cb)
    {
        if (tagged_) {
            tagged_->scheduleAfter(delay, std::move(cb));
            return;
        }
        scheduleTagged(now_ + delay, detail::tls_exec.tag,
                       std::move(cb));
    }

    /**
     * Fire events until the queue drains.
     * @return number of events executed.
     */
    std::uint64_t
    run()
    {
        barre_assert(!tagged_,
                     "run() on a partitioned queue; use the harness "
                     "DomainScheduler");
        FireScope tag_restore;
        std::uint64_t fired = 0;
        for (;;) {
            if (nowLaneEmpty()) {
                Tick next;
                const Next from = peekNext(next);
                if (from == Next::none)
                    break;
                now_ = next;
                if (from == Next::bucket) {
                    promoteBucket(next);
                    continue; // promotion fires nothing by itself
                }
                Entry e = heap_.pop();
                detail::tls_exec.tag = e.tag;
                e.cb();
            } else {
                fireNowOrTiedHeapTop();
            }
            ++fired;
            BARRE_AUDIT_EVERY(audit_tick_, kAuditPeriod,
                              auditInvariants());
        }
        fired_total_ += fired;
        return fired;
    }

    /**
     * Deep audit of the queue's structural invariants (see
     * sim/invariant.hh): the 4-ary heap property on (when, seq), no
     * entry in the past, the fast lane holding only current-tick
     * entries in FIFO (strictly increasing seq) order, every ladder
     * bucket holding exactly one in-window tick in FIFO order with a
     * consistent occupancy bitmap, and the bucket↔heap boundary — any
     * heap entry sharing a tick with a bucket must predate (smaller
     * seq than) everything in that bucket, or the promotion tie-break
     * would misorder them. Panics (throws) on violation. O(pending).
     */
    void
    auditInvariants() const
    {
        for (const Entry &e : heap_) {
            barre_assert(e.when >= now_,
                         "heap entry at tick %llu is in the past "
                         "(now %llu)",
                         (unsigned long long)e.when,
                         (unsigned long long)now_);
        }
        heap_.auditOrder("event queue");
        barre_assert(now_head_ <= now_lane_.size(),
                     "fast-lane head past its end");
        for (std::size_t i = now_head_; i < now_lane_.size(); ++i) {
            barre_assert(now_lane_[i].when == now_,
                         "fast-lane entry %zu at tick %llu, not now "
                         "(%llu)",
                         i, (unsigned long long)now_lane_[i].when,
                         (unsigned long long)now_);
            barre_assert(i == now_head_ ||
                         now_lane_[i - 1].seq < now_lane_[i].seq,
                         "fast lane is not FIFO at entry %zu", i);
        }
        auditLadder();
    }

    /**
     * Test hook: flip one slot's occupancy bit behind the bucket
     * storage's back, desynchronizing the bitmap on purpose so
     * invariant tests can assert auditInvariants() fires.
     */
    void
    debugCorruptLadderBitmap(std::size_t slot)
    {
        bucket_bits_[slot >> 6] ^= std::uint64_t{1} << (slot & 63);
    }

  private:
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        SeqTag tag; ///< tag whose state the callback mutates
        Callback cb;
    };

    /** Firing order: the exact total order (when, seq). */
    struct EntryBefore
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            return a.when != b.when ? a.when < b.when : a.seq < b.seq;
        }
    };

    /**
     * Route an entry carrying @p tag to the lane/ladder/heap. The tag
     * plays no part in firing order — (when, seq) stays the exact
     * total order, so results are bitwise identical to a tagless
     * queue — it only feeds currentExecTag() during the callback so
     * the domain audit can attribute accesses.
     */
    void
    scheduleTagged(Tick when, SeqTag tag, Callback cb)
    {
        if (when == now_)
            pushNowLane(tag, std::move(cb));
        else if (mode_ == QueueMode::ladder && when - now_ < kWindow)
            pushBucket(when, tag, std::move(cb));
        else
            heap_.push(Entry{when, seq_++, tag, std::move(cb)});
    }

    /**
     * Restores the thread's current-tag slot when a run loop exits
     * (normally or by a panic throw), so a fired event's tag never
     * leaks into setup/harvest code or the next simulation.
     */
    class FireScope
    {
      public:
        FireScope() : saved_(detail::tls_exec.tag) {}
        ~FireScope() { detail::tls_exec.tag = saved_; }

        FireScope(const FireScope &) = delete;
        FireScope &operator=(const FireScope &) = delete;

      private:
        SeqTag saved_;
    };

    enum class Next
    {
        none,
        heap,
        bucket,
    };

    static constexpr std::size_t kReserve = 1024;
    static constexpr std::uint64_t kAuditPeriod = 4096;
    /** Ladder window length in ticks; must stay a power of two. */
    static constexpr Tick kWindow = 256;
    static constexpr Tick kSlotMask = kWindow - 1;
    static constexpr std::size_t kBitmapWords = kWindow / 64;

    bool nowLaneEmpty() const { return now_head_ == now_lane_.size(); }

    /**
     * All entries in the fast lane carry when == now_: they are pushed
     * at the current tick, and now_ cannot advance while the lane is
     * non-empty (an event with a later tick is never the minimum then).
     */
    void
    pushNowLane(SeqTag tag, Callback cb)
    {
        now_lane_.push_back(Entry{now_, seq_++, tag, std::move(cb)});
    }

    /**
     * Append to the ladder bucket for @p when.
     * @pre now_ < when && when - now_ < kWindow (so the slot is free of
     * any other tick: the window spans less than one full rotation, and
     * slot now_ & kSlotMask — the only aliasing candidate — is never
     * occupied because tick now_ routes to the lane and tick
     * now_ + kWindow is outside the window).
     */
    void
    pushBucket(Tick when, SeqTag tag, Callback cb)
    {
        const std::size_t slot = when & kSlotMask;
        std::vector<Entry> &b = buckets_[slot];
        if (b.empty())
            bucket_bits_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
        b.push_back(Entry{when, seq_++, tag, std::move(cb)});
        ++bucket_count_;
    }

    /**
     * Earliest tick present in the ladder, if any. Scanning slots in
     * circular order starting just past now_ visits window ticks in
     * increasing order, so the first occupied slot is the minimum; the
     * occupancy bitmap turns the scan into a handful of word tests.
     */
    Next
    nextBucketTick(Tick &out) const
    {
        if (bucket_count_ == 0)
            return Next::none;
        const std::size_t start = (now_ + 1) & kSlotMask;
        std::size_t off = 0;
        while (off < kWindow) {
            const std::size_t slot = (start + off) & kSlotMask;
            const std::uint64_t word = bucket_bits_[slot >> 6];
            const std::uint64_t bits = word >> (slot & 63);
            if (bits != 0) {
                const std::size_t hit = slot + std::countr_zero(bits);
                out = buckets_[hit].front().when;
                return Next::bucket;
            }
            off += 64 - (slot & 63);
        }
        barre_panic("ladder count %zu but no occupied bucket",
                    bucket_count_);
    }

    /** Earliest pending tick and which structure holds it. */
    Next
    peekNext(Tick &out) const
    {
        Tick bucket_tick;
        const Next from_bucket = nextBucketTick(bucket_tick);
        if (heap_.empty()) {
            out = bucket_tick;
            return from_bucket;
        }
        if (from_bucket == Next::none || heap_.top().when < bucket_tick) {
            out = heap_.top().when;
            return Next::heap;
        }
        // Tie: promote the bucket; heap entries at the same tick have
        // smaller seqs and win inside fireNowOrTiedHeapTop.
        out = bucket_tick;
        return Next::bucket;
    }

    /**
     * Swap the bucket for tick @p when (== now_) into the empty fast
     * lane. The vectors trade storage, so the lane's capacity from the
     * previous tick becomes the bucket's scratch space — steady-state
     * operation allocates nothing.
     */
    void
    promoteBucket(Tick when)
    {
        const std::size_t slot = when & kSlotMask;
        now_lane_.swap(buckets_[slot]);
        now_head_ = 0;
        bucket_bits_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
        bucket_count_ -= now_lane_.size();
        buckets_[slot].clear();
    }

    /**
     * Fire the fast-lane head — unless a heap entry at the same tick
     * was scheduled earlier (smaller seq); it wins the FIFO tie-break.
     */
    void
    fireNowOrTiedHeapTop()
    {
        if (!heap_.empty() && heap_.top().when == now_ &&
            heap_.top().seq < now_lane_[now_head_].seq) {
            Entry e = heap_.pop();
            detail::tls_exec.tag = e.tag;
            e.cb();
            return;
        }
        Entry e = std::move(now_lane_[now_head_++]);
        if (nowLaneEmpty()) {
            now_lane_.clear();
            now_head_ = 0;
        }
        detail::tls_exec.tag = e.tag;
        e.cb();
    }

    /** Ladder-specific half of auditInvariants(). */
    void
    auditLadder() const
    {
        std::size_t counted = 0;
        for (std::size_t slot = 0; slot < kWindow; ++slot) {
            const std::vector<Entry> &b = buckets_[slot];
            const bool bit = (bucket_bits_[slot >> 6] >>
                              (slot & 63)) & 1;
            barre_assert(bit == !b.empty(),
                         "ladder bitmap disagrees with bucket %zu", slot);
            if (b.empty())
                continue;
            barre_assert(mode_ == QueueMode::ladder,
                         "heap-only queue has an occupied bucket");
            counted += b.size();
            const Tick when = b.front().when;
            barre_assert((when & kSlotMask) == slot,
                         "bucket %zu holds tick %llu, wrong slot", slot,
                         (unsigned long long)when);
            barre_assert(when > now_ && when - now_ < kWindow,
                         "bucket %zu tick %llu outside window (now "
                         "%llu)",
                         slot, (unsigned long long)when,
                         (unsigned long long)now_);
            for (std::size_t i = 0; i < b.size(); ++i) {
                barre_assert(b[i].when == when,
                             "bucket %zu mixes ticks %llu and %llu",
                             slot, (unsigned long long)when,
                             (unsigned long long)b[i].when);
                barre_assert(i == 0 || b[i - 1].seq < b[i].seq,
                             "bucket %zu is not FIFO at entry %zu",
                             slot, i);
            }
        }
        barre_assert(counted == bucket_count_,
                     "ladder count %zu != sum of buckets %zu",
                     bucket_count_, counted);
        // Bucket↔heap boundary: heap entries must predate any bucket
        // entries at the same tick (routing to a tick's bucket starts
        // strictly after routing to the heap stops).
        for (const Entry &e : heap_) {
            if (e.when <= now_ || e.when - now_ >= kWindow)
                continue;
            const std::vector<Entry> &b = buckets_[e.when & kSlotMask];
            if (b.empty() || b.front().when != e.when)
                continue;
            barre_assert(e.seq < b.front().seq,
                         "heap entry at tick %llu (seq %llu) scheduled "
                         "after bucket entry (seq %llu)",
                         (unsigned long long)e.when,
                         (unsigned long long)e.seq,
                         (unsigned long long)b.front().seq);
        }
    }

    QuadHeap<Entry, EntryBefore> heap_; ///< far-future overflow
    std::vector<Entry> now_lane_; ///< FIFO of events at tick now_
    std::size_t now_head_ = 0;    ///< first unfired fast-lane entry
    /** Per-tick FIFO buckets for the (now, now + kWindow) window. */
    std::array<std::vector<Entry>, kWindow> buckets_;
    /** One bit per bucket: occupied? Drives the next-tick scan. */
    std::array<std::uint64_t, kBitmapWords> bucket_bits_{};
    std::size_t bucket_count_ = 0; ///< entries across all buckets
    QueueMode mode_;
    Tick now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t fired_total_ = 0;
    std::uint64_t audit_tick_ = 0; ///< BARRE_AUDIT_EVERY site counter
    /** Partitioned-mode engine; nullptr = legacy serial queue. */
    std::unique_ptr<TaggedEngine> tagged_;
};

/**
 * The whole point of InlineFn here: per-event scheduling must not touch
 * the allocator for ordinary captures. Guard against regressing back
 * to a heap-allocating payload type.
 */
static_assert(
    EventQueue::Callback::fitsInline<decltype([p = (void *)nullptr,
                                               q = (void *)nullptr,
                                               t = Tick{0}] {})>(),
    "EventQueue::Callback must store small captures inline");

} // namespace barre
