/**
 * @file
 * The event engine: sequencing tags, per-domain event queues (a per-tick
 * near window in front of a far heap) with their callbacks in a slab,
 * and the cross-domain staging that lets domains advance in parallel.
 *
 * The simulated system is split into *tags* — the finest units that are
 * never divided across threads (the host/IOMMU side is tag 0, chiplet c
 * is tag 1+c) — and tags are grouped into *domains*. All domains
 * advance in lock-step epochs [S, S + lookahead), where `lookahead` is
 * the minimum over all cross-domain links of (1 serialization cycle +
 * propagation latency): nothing sent inside an epoch can land before
 * its horizon. Cross-domain sends stage in the sending domain's outbox,
 * one lane per destination domain; at the start of the next epoch each
 * destination moves the lanes addressed to it into its own queue. One
 * domain holding every tag is the serial run: it drains in a single
 * epoch.
 *
 * Determinism does not come from drain order but from the firing key.
 * Every event carries a composite key (when, birth, key) where `when`
 * is its tick, `birth` the sending domain's clock when it was
 * scheduled, and `key` packs (origin tag << 48 | per-tag counter). Each
 * tag's counter is only ever advanced from that tag's own execution
 * context, so key allocation is race-free and — by induction over each
 * tag's event stream — independent of how tags are grouped into
 * domains. Firing in lexicographic (when, birth, key) order therefore
 * yields the same per-tag event interleaving for 1, 2, 4, or 8
 * domains, on 1 or N threads. With a single tag, birth and key both
 * grow in scheduling order, so the order reduces to (when, seq): same
 * tick fires in scheduling order. fireDigests() condenses the order
 * into one hash chain per tag so tests can assert bitwise identity
 * cheaply.
 *
 * Shared cross-domain resources (the PCIe upstream link arbitrating
 * wire occupancy among all chiplets) cannot be resolved at send time in
 * parallel mode: the sender only knows *when* it sent, not who else
 * did. Those sends are staged as arbitration ops keyed by
 * (send tick, sending event's birth, sending event's key, per-event op
 * index) and replayed through an ArbHook in key order by the owner's
 * domain when it drains its inbound lanes.
 */

#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/inline_fn.hh"
#include "sim/invariant.hh"
#include "sim/logging.hh"
#include "sim/quad_heap.hh"
#include "sim/types.hh"

namespace barre
{

/**
 * Sequencing tag: the finest never-split unit of simulated state. Tag 0
 * is the host (IOMMU, driver, PCIe root); chiplet c is tag 1 + c.
 */
using SeqTag = std::uint16_t;

constexpr SeqTag kHostTag = 0;

constexpr SeqTag
chipletTag(ChipletId c)
{
    return static_cast<SeqTag>(c + 1);
}

class EventQueue;

/**
 * Per-thread execution context: which queue/domain/tag the code on
 * this thread is currently simulating, plus the identity of the event
 * being executed (its birth tick and composite key) so that staged
 * arbitration ops can be keyed by their originating event.
 */
struct ExecCtx
{
    EventQueue *engine = nullptr;
    std::uint32_t domain = 0;
    SeqTag tag = 0;
    Tick ev_birth = 0;
    std::uint64_t ev_key = 0;
    std::uint32_t op_ctr = 0; ///< arbitration ops issued by this event
};

namespace detail
{
inline thread_local ExecCtx tls_exec;

/** Restores this thread's execution context on scope exit, normal or
 *  by a panic throw, so a fired event's context never leaks into
 *  setup/harvest code or the next simulation. */
class ExecScope
{
  public:
    ExecScope() : saved_(tls_exec) {}
    ~ExecScope() { tls_exec = saved_; }

    ExecScope(const ExecScope &) = delete;
    ExecScope &operator=(const ExecScope &) = delete;

  private:
    ExecCtx saved_;
};
} // namespace detail

/** Tag currently executing on this thread (kHostTag outside any). */
inline SeqTag
currentExecTag()
{
    return detail::tls_exec.tag;
}

/**
 * A Counter whose increments land in a per-tag shard, so one logical
 * statistic owned by a host-side component (IOMMU, F-Barre service,
 * GMMU) can be bumped from any chiplet's execution context without a
 * data race. Unsharded (a component built outside a System) there is
 * a single shard and the behaviour is identical to Counter. value()
 * sums the shards; call it only outside the parallel run (System
 * teardown / metrics harvest).
 */
class TagCounter
{
  public:
    TagCounter() : slots_(1) {}

    /** Size one shard per tag; called by StatRegistry::shard(). */
    void
    shard(std::size_t tags)
    {
        slots_.assign(tags ? tags : 1, Slot{});
    }

    TagCounter &
    operator++()
    {
        slot().v += 1;
        return *this;
    }

    TagCounter &
    operator+=(std::uint64_t n)
    {
        slot().v += n;
        return *this;
    }

    std::uint64_t
    value() const
    {
        std::uint64_t sum = 0;
        for (const Slot &s : slots_)
            sum += s.v;
        return sum;
    }

  private:
    struct alignas(64) Slot
    {
        std::uint64_t v = 0;
    };

    Slot &
    slot()
    {
        const SeqTag t = currentExecTag();
        // An unsharded counter (a component unit test on a bare
        // queue) has one shard that every tag bumps; a System shards
        // every counter, one slot per tag, before anything runs.
        if (slots_.size() == 1)
            return slots_[0];
        barre_assert(t < slots_.size(),
                     "TagCounter bumped from tag %u but only %zu "
                     "shard(s); missing a shard() call at system build",
                     unsigned(t), slots_.size());
        return slots_[t];
    }

    std::vector<Slot> slots_;
};

/**
 * A shared resource that must arbitrate cross-domain sends in global
 * key order (e.g. a Link's wire occupancy). arbitrate() observes the
 * send tick, updates the resource's internal state exactly as an
 * inline send would, and returns the delivery tick; it is FIFO, so a
 * later call never delivers before an earlier one. lowerBound() changes
 * nothing: it returns a tick no later than what arbitrate() would
 * return for the same send, now or after further calls, and equal to
 * it on the resource's current state. The epoch barrier bounds the
 * staged ops' arrivals with it before their owner replays them.
 */
class ArbHook
{
  public:
    virtual Tick arbitrate(Tick send_tick, std::uint64_t bytes) = 0;
    virtual Tick lowerBound(Tick send_tick, std::uint64_t bytes) const = 0;

  protected:
    ~ArbHook() = default;
};

/**
 * The event queue of one simulated system: per domain, the pending
 * firing records ordered by the composite key, the callbacks those
 * records name in a slab, per-tag key counters and firing digests, and
 * one outbox per sending domain that stages cross-domain sends, one
 * lane per destination, until the destination drains them.
 *
 * Each domain files its records in two places. Records due inside the
 * near window [now, now + kWindow) sit in per-tick buckets: doubly
 * linked lists threaded through the slab, each in (birth, key) order,
 * with an occupancy bitmap to find the next tick. Records due later
 * wait in a 4-ary heap, the far backstop. The window's base is the
 * domain clock, which moves only when a record fires, never on a peek:
 * a staged arrival at or past an epoch horizon always lands at or after
 * it. Each move of the clock pulls the far records that now fall inside
 * the window into their buckets. Both halves keep the exact
 * (when, birth, key) order; the window makes push and pop O(1) for the
 * short delays that dominate a run.
 *
 * A default-constructed queue is one domain whose tag set grows on
 * demand; run() drains it. enableTags() gives it a System's partition
 * plan instead, after which the harness DomainScheduler drives it.
 * Scheduling from outside any execution context (setup code, tests)
 * acts as the host tag; on a multi-domain queue such code must name
 * its tag with a TagScope.
 *
 * Threading contract: domain d is only ever advanced by one worker at
 * a time (runEpoch), and a tag lives in exactly one domain, so all
 * per-domain and per-tag state is single-writer. The outbox is double
 * buffered by epoch parity: in epoch e a domain appends only to its
 * own lanes of parity e, and runEpoch(d) first drains, as d's worker,
 * the lanes of parity e - 1 addressed to d, which no one else touches
 * that epoch (an arbitration op's hook belongs to the owner tag, so
 * only d's worker replays it). nextEventTick() and beginEpoch() run
 * on the last worker to reach the one barrier per epoch, while the
 * others wait; the barrier's release/acquire ordering publishes every
 * append and every replay before them, and the new horizon and parity
 * before the next epoch.
 */
class EventQueue
{
  public:
    using Callback = InlineFn<void()>;

    /** Ticks covered by a domain's near window. */
    static constexpr std::uint32_t kWindow = 1024;

    EventQueue() : tag_domain_(1, 0), domains_(1), ctr_(1), digest_(1)
    {
        sizeLanes();
    }

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Apply a partition plan: tag t lives in domain @p tag_domain [t]
     * of @p domains. Must be called before anything is scheduled.
     */
    void
    enableTags(std::vector<std::uint32_t> tag_domain,
               std::uint32_t domains)
    {
        barre_assert(open_ && fired() == 0 && empty() && now() == 0,
                     "enableTags on a queue that has been used");
        barre_assert(domains >= 1, "need at least one domain");
        for (std::uint32_t d : tag_domain)
            barre_assert(d < domains,
                         "tag mapped to domain %u of %u", d, domains);
        const std::size_t tags = tag_domain.size();
        tag_domain_ = std::move(tag_domain);
        domains_ = std::vector<Domain>(domains);
        sizeLanes();
        ctr_.assign(tags, PaddedU64{});
        digest_.assign(tags, PaddedU64{});
        open_ = false;
    }

    std::uint32_t domains() const { return std::uint32_t(domains_.size()); }
    bool multiDomain() const { return domains_.size() > 1; }

    /** Spelling kept for the repo benchmark, which reads digests
     *  through it; the queue is the engine. */
    const EventQueue *taggedEngine() const { return this; }

    /**
     * Current time. Inside an execution context this is the executing
     * domain's clock; outside (setup done, run finished) it is the
     * global maximum — the tick of the last event fired anywhere.
     */
    Tick
    now() const
    {
        const ExecCtx &ctx = detail::tls_exec;
        if (ctx.engine == this)
            return domains_[ctx.domain].now;
        Tick t = 0;
        for (const Domain &d : domains_)
            t = std::max(t, d.now);
        return t;
    }

    /** Total events fired over the queue's lifetime. */
    std::uint64_t
    fired() const
    {
        std::uint64_t n = 0;
        for (const Domain &d : domains_)
            n += d.fired;
        return n;
    }

    /** Pending events, staged sends included; call outside a run. */
    std::size_t
    pending() const
    {
        std::size_t n = 0;
        for (const Domain &d : domains_) {
            n += d.near + d.far.size();
            for (const std::vector<Lane> &lanes : d.out)
                for (const Lane &l : lanes)
                    n += l.sends.size() + l.arbs.size();
        }
        return n;
    }

    bool empty() const { return pending() == 0; }

    /**
     * Schedule @p cb on the current tag at absolute tick @p when.
     * @pre when >= now()
     */
    void
    schedule(Tick when, Callback cb)
    {
        ExecCtx &ctx = detail::tls_exec;
        if (ctx.engine != this) [[unlikely]]
            return asHost([&] { schedule(when, std::move(cb)); });
        Domain &dom = domains_[ctx.domain];
        barre_assert(when >= dom.now,
                     "scheduling into the past (%llu < %llu)",
                     (unsigned long long)when,
                     (unsigned long long)dom.now);
        push(dom, {when, dom.now, allocKey(ctx.tag), 0, ctx.tag},
             std::move(cb));
    }

    /** Schedule @p cb on the current tag @p delay cycles from now. */
    void
    scheduleAfter(Cycles delay, Callback cb)
    {
        ExecCtx &ctx = detail::tls_exec;
        if (ctx.engine != this) [[unlikely]]
            return asHost([&] { scheduleAfter(delay, std::move(cb)); });
        Domain &dom = domains_[ctx.domain];
        push(dom, {dom.now + delay, dom.now, allocKey(ctx.tag), 0, ctx.tag},
             std::move(cb));
    }

    /**
     * Schedule @p cb to execute as tag @p dst at tick @p when. The
     * delivery key is allocated from the *sending* tag's counter (the
     * caller's context), keeping allocation race-free and partition-
     * independent. Same-domain and non-running sends insert directly;
     * cross-domain sends during a run stage in the sender's lane to
     * the destination domain until the next epoch drains it.
     */
    void
    scheduleCross(SeqTag dst, Tick when, Callback cb)
    {
        ExecCtx &ctx = detail::tls_exec;
        if (ctx.engine != this) [[unlikely]]
            return asHost([&] { scheduleCross(dst, when, std::move(cb)); });
        reachTag(dst);
        const std::uint32_t dd = tag_domain_[dst];
        Domain &src = domains_[ctx.domain];
        const Record r{when, src.now, allocKey(ctx.tag), 0, dst};
        if (!running_ || dd == ctx.domain) {
            barre_assert(when >= domains_[dd].now,
                         "cross schedule into the past");
            push(domains_[dd], r, std::move(cb));
            return;
        }
        // The lookahead must lower-bound every cross-domain delivery;
        // a message landing inside the current epoch beat its link's
        // minimum latency and the conservative bound is unsound.
        BARRE_AUDIT(barre_assert(
            when >= horizon_,
            "cross-domain event for tag %u at tick %llu inside "
            "the epoch horizon %llu: lookahead is unsound",
            unsigned(dst), (unsigned long long)when,
            (unsigned long long)horizon_));
        src.out_min = std::min(src.out_min, when);
        src.out[parity_][dd].sends.push_back(Staged{r, std::move(cb)});
    }

    /**
     * Send through a shared resource owned by tag @p owner. Serial (or
     * single-domain) operation resolves the arbitration inline and
     * returns the delivery tick; parallel operation stages the op for
     * key-ordered replay by the owner's domain at the start of the next
     * epoch and returns 0 (the arrival is unknowable until every
     * competitor that sorts earlier is visible).
     */
    Tick
    stageArb(SeqTag owner, ArbHook &hook, std::uint64_t bytes,
             Callback deliver)
    {
        ExecCtx &ctx = detail::tls_exec;
        if (ctx.engine != this) [[unlikely]] {
            return asHost([&] {
                return stageArb(owner, hook, bytes, std::move(deliver));
            });
        }
        reachTag(owner);
        Domain &src = domains_[ctx.domain];
        const Tick sent = src.now;
        if (!running_ || !multiDomain()) {
            const Tick arrive = hook.arbitrate(sent, bytes);
            push(domains_[tag_domain_[owner]],
                 {arrive, sent, allocKey(ctx.tag), 0, owner},
                 std::move(deliver));
            return arrive;
        }
        const ArbOp op{sent, ctx.ev_birth, ctx.ev_key, ctx.op_ctr++, bytes,
                       &hook};
        // A domain fires in key order, so its ops arrive here in replay
        // order and the first one per hook is that hook's earliest.
        if (std::none_of(src.out_heads.begin(), src.out_heads.end(),
                         [&](const ArbOp &h) { return h.hook == &hook; }))
            src.out_heads.push_back(op);
        src.out[parity_][tag_domain_[owner]].arbs.push_back(
            StagedArb{op, allocKey(ctx.tag), owner, std::move(deliver)});
        return 0;
    }

    /**
     * Fire events until a default-constructed queue drains.
     * @return number of events executed.
     */
    std::uint64_t
    run()
    {
        barre_assert(open_, "run() on a queue with a partition plan; "
                            "use the harness DomainScheduler");
        return runEpoch(0, max_tick);
    }

    // -- scheduler driving (DomainScheduler / tests) ------------------

    /** Mark the start/end of parallel execution; a start zeroes
     *  epochs(). */
    void
    setRunning(bool r)
    {
        running_ = r;
        if (r)
            epochs_ = 0;
    }

    /**
     * Open the next epoch, whose horizon (exclusive upper tick) is
     * @p horizon: the lanes staged so far become the ones runEpoch()
     * drains, and the senders start on the other parity.
     */
    void
    beginEpoch(Tick horizon)
    {
        staged_horizon_ = horizon_;
        horizon_ = horizon;
        parity_ ^= 1;
        ++epochs_;
        for (Domain &d : domains_) {
            d.out_min = max_tick;
            d.out_heads.clear();
        }
    }

    /** Epochs opened since the last setRunning(true): the epoch count
     *  of the last DomainScheduler::run on this queue. */
    std::uint64_t epochs() const { return epochs_; }

    /**
     * Drain domain @p d 's inbound lanes (the sends staged for it in
     * the previous epoch, replaying the arbitration ops its tags own),
     * then fire every event of @p d with tick < @p horizon. The
     * domain's clock advances only to fired events' ticks (never to
     * the horizon itself), so after the run now() lands exactly on the
     * last fired tick.
     * @return events fired.
     */
    std::uint64_t
    runEpoch(std::uint32_t d, Tick horizon)
    {
        Domain &dom = domains_[d];
        detail::ExecScope scope;
        ExecCtx &ctx = detail::tls_exec;
        ctx.engine = this;
        ctx.domain = d;
        drainInbound(d);
        std::uint64_t fired = 0;
        for (;;) {
            std::uint32_t s;
            if (dom.near != 0) {
                const std::uint32_t b = firstBucket(dom);
                s = dom.buckets[b].head;
                if (dom.nodes[s].when >= horizon)
                    break;
                unlinkHead(dom, b);
            } else if (!dom.far.empty() && dom.far.top().when < horizon) {
                s = dom.far.pop().slot;
            } else {
                break;
            }
            // Move the callback out and free its slot first: the
            // callback may schedule into this slab, which can
            // reallocate and reuse the slot.
            const Node n = dom.nodes[s];
            Callback cb = std::move(dom.slab[s]);
            dom.free.push_back(s);
            if (n.when != dom.now)
                advance(dom, n.when);
            ctx.tag = n.tag;
            ctx.ev_birth = n.birth;
            ctx.ev_key = n.key;
            ctx.op_ctr = 0;
            digestFire(n);
            cb();
            ++fired;
            BARRE_AUDIT_EVERY(dom.audit_tick, kAuditPeriod,
                              auditDomain(d));
        }
        dom.fired += fired;
        return fired;
    }

    /**
     * Earliest pending tick across all domains (max_tick if none),
     * staged sends included: a plain send's tick, and for each hook the
     * lower bound of its first staged op in replay order. A hook is
     * FIFO, so that op arrives first, and its bound is exact on the
     * hook's current state.
     */
    Tick
    nextEventTick() const
    {
        Tick t = max_tick;
        for (const Domain &d : domains_) {
            if (d.near != 0) {
                const std::uint32_t head = d.buckets[firstBucket(d)].head;
                t = std::min(t, d.nodes[head].when);
            } else if (!d.far.empty()) {
                t = std::min(t, d.far.top().when);
            }
            t = std::min(t, d.out_min);
            for (const ArbOp &h : d.out_heads) {
                const bool first = std::none_of(
                    domains_.begin(), domains_.end(), [&](const Domain &o) {
                        return std::any_of(
                            o.out_heads.begin(), o.out_heads.end(),
                            [&](const ArbOp &g) {
                                return g.hook == h.hook && arbBefore(g, h);
                            });
                    });
                if (first)
                    t = std::min(t, h.hook->lowerBound(h.sent, h.bytes));
            }
        }
        return t;
    }

    /**
     * One FNV-style hash chain per tag over the (when, birth, key) of
     * every event fired as that tag — a compact witness of the firing
     * order. Two runs (any domain count, any thread count) simulate
     * identically iff these match.
     */
    std::vector<std::uint64_t>
    fireDigests() const
    {
        std::vector<std::uint64_t> out;
        out.reserve(digest_.size());
        for (const PaddedU64 &d : digest_)
            out.push_back(d.v);
        return out;
    }

    /**
     * Deep audit of every domain (see sim/invariant.hh): every near
     * record in its own tick's bucket inside [now, now + kWindow), each
     * bucket's links consistent and strictly (birth, key)-ordered, a
     * bitmap bit set exactly for the non-empty buckets, the far heap
     * ordered on (when, birth, key) and holding nothing inside the
     * window, no record owned by another domain's tag, every record
     * naming a live callback in the slab, no free-list slot named by a
     * record or listed twice, and records plus free slots covering the
     * slab exactly. Panics (throws) on violation. O(pending + kWindow).
     */
    void
    auditInvariants() const
    {
        for (std::uint32_t d = 0; d < domains(); ++d)
            auditDomain(d);
    }

    /**
     * Test hook: toggle @p slot 's membership in domain 0's free list
     * behind the queue's back — freeing a live callback's slot, or
     * leaking a free one — so invariant tests can assert
     * auditInvariants() fires.
     */
    void
    debugCorruptSlab(std::uint32_t slot)
    {
        std::vector<std::uint32_t> &free = domains_[0].free;
        const auto it = std::find(free.begin(), free.end(), slot);
        if (it == free.end())
            free.push_back(slot);
        else
            free.erase(it);
    }

    /**
     * Test hook: move domain 0's first near record into the next
     * tick's bucket without changing its tick, so invariant tests can
     * assert auditInvariants() fires on a misfiled record.
     * @pre domain 0 has a record in its near window
     */
    void
    debugMisfileNear()
    {
        Domain &dom = domains_[0];
        barre_assert(dom.near != 0, "no near record to misfile");
        const std::uint32_t b = firstBucket(dom);
        const std::uint32_t s = dom.buckets[b].head;
        unlinkHead(dom, b);
        const std::uint32_t next = (b + 1) % kWindow;
        linkAfter(dom, next, dom.buckets[next].tail, s);
    }

    /**
     * RAII bracket establishing an execution context for tag @p tag —
     * used for setup-time scheduling (CU starts, arrivals) that
     * happens outside any fired event.
     */
    class TagScope
    {
      public:
        TagScope(EventQueue &eq, SeqTag tag)
        {
            eq.reachTag(tag);
            ExecCtx &ctx = detail::tls_exec;
            ctx.engine = &eq;
            ctx.domain = eq.tag_domain_[tag];
            ctx.tag = tag;
            ctx.ev_birth = eq.domains_[ctx.domain].now;
            ctx.ev_key = std::uint64_t(tag) << 48;
            ctx.op_ctr = 0;
        }

      private:
        detail::ExecScope scope_;
    };

  private:

    static constexpr std::uint32_t kNil = ~std::uint32_t{0};
    static constexpr std::uint32_t kWords = kWindow / 64;
    static_assert(kWindow % 64 == 0);

    /**
     * One pending event's firing record, as the far heap keeps it: it
     * fires in (when, birth, key) order; its callback waits in the
     * domain's slab at @c slot, so heap sifts move 32 bytes and never
     * a callback.
     */
    struct Record
    {
        Tick when;
        Tick birth;        ///< sender domain's clock at schedule time
        std::uint64_t key; ///< origin tag << 48 | per-tag counter
        std::uint32_t slot;
        SeqTag tag;        ///< tag whose state the callback mutates
    };
    static_assert(sizeof(Record) == 32);

    /** Firing order: lexicographic (when, birth, key). */
    struct RecordBefore
    {
        bool
        operator()(const Record &a, const Record &b) const
        {
            if (a.when != b.when)
                return a.when < b.when;
            if (a.birth != b.birth)
                return a.birth < b.birth;
            return a.key < b.key;
        }
    };

    /**
     * A slab slot's record: the firing key of the callback at the same
     * index, plus its links in its tick's bucket while it is near.
     */
    struct Node
    {
        Tick when;
        Tick birth;
        std::uint64_t key;
        std::uint32_t prev; ///< earlier record of the bucket, or kNil
        std::uint32_t next; ///< later record of the bucket, or kNil
        SeqTag tag;
    };

    /** First and last slot of one tick's records, or kNil. */
    struct TickBucket
    {
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;
    };

    /** A cross-domain send awaiting its destination's drain. */
    struct Staged
    {
        Record rec;
        Callback cb;
    };

    /** A shared-resource send: its replay-order key and what its hook
     *  arbitrates. */
    struct ArbOp
    {
        Tick sent;             ///< sender clock at send time
        Tick ev_birth;         ///< sending event's birth
        std::uint64_t ev_key;  ///< sending event's key
        std::uint32_t op_idx;  ///< nth op issued by that event
        std::uint64_t bytes;
        ArbHook *hook;
    };

    /** A shared-resource send awaiting key-ordered arbitration. */
    struct StagedArb
    {
        ArbOp op;
        std::uint64_t key;     ///< pre-allocated delivery key
        SeqTag owner;          ///< tag owning the shared resource
        Callback deliver;
    };

    /** One sending domain's staged sends to one destination domain in
     *  one epoch. Cache-line aligned: destinations clear their lanes of
     *  one sender concurrently. */
    struct alignas(64) Lane
    {
        std::vector<Staged> sends;
        std::vector<StagedArb> arbs; ///< in replay order (see stageArb)
    };

    struct alignas(64) Domain
    {
        /** Near records by tick: tick t's bucket is t % kWindow. */
        std::array<TickBucket, kWindow> buckets{};
        /** Bit b set iff buckets[b] is non-empty. */
        std::array<std::uint64_t, kWords> occupied{};
        std::size_t near = 0; ///< records in the buckets
        /** Records due at or after now + kWindow. */
        QuadHeap<Record, RecordBefore> far;
        /** Callbacks of the pending records; free slots are empty. */
        std::vector<Callback> slab;
        std::vector<Node> nodes; ///< by slab slot
        std::vector<std::uint32_t> free; ///< reusable slab slots
        Tick now = 0;
        std::uint64_t fired = 0;
        std::uint64_t audit_tick = 0;
        /** Outbox by epoch parity, then destination domain; this
         *  domain's worker appends to the current parity's lanes. */
        std::array<std::vector<Lane>, 2> out;
        /** Earliest tick of this epoch's staged plain sends. */
        Tick out_min = max_tick;
        /** This epoch's first staged op of each hook. */
        std::vector<ArbOp> out_heads;
        /** Replay-order scratch for the inbound arbitration ops. */
        std::vector<StagedArb *> replay;
    };

    struct alignas(64) PaddedU64
    {
        std::uint64_t v = 0;
    };

    static constexpr std::uint64_t kAuditPeriod = 4096;

    static bool
    arbBefore(const ArbOp &a, const ArbOp &b)
    {
        if (a.sent != b.sent)
            return a.sent < b.sent;
        if (a.ev_birth != b.ev_birth)
            return a.ev_birth < b.ev_birth;
        if (a.ev_key != b.ev_key)
            return a.ev_key < b.ev_key;
        return a.op_idx < b.op_idx;
    }

    /** Park @p cb in a free slab slot of @p dom and file @p r for it:
     *  in its tick's bucket if it is near, on the far heap if not. */
    static void
    push(Domain &dom, Record r, Callback cb)
    {
        const Node n{r.when, r.birth, r.key, kNil, kNil, r.tag};
        if (dom.free.empty()) {
            r.slot = std::uint32_t(dom.slab.size());
            dom.slab.push_back(std::move(cb));
            dom.nodes.push_back(n);
        } else {
            r.slot = dom.free.back();
            dom.free.pop_back();
            dom.slab[r.slot] = std::move(cb);
            dom.nodes[r.slot] = n;
        }
        if (r.when - dom.now < kWindow)
            fileNear(dom, r.slot);
        else
            dom.far.push(r);
    }

    /**
     * Insert near slot @p s into its tick's bucket, walking from the
     * tail: a record born now (the common case) goes last at once. One
     * that fires before records already queued for its tick (born
     * later in a domain that ran ahead, or at the same birth by a lower
     * tag) moves up past them.
     */
    static void
    fileNear(Domain &dom, std::uint32_t s)
    {
        const Node &n = dom.nodes[s];
        const std::uint32_t b = std::uint32_t(n.when % kWindow);
        std::uint32_t at = dom.buckets[b].tail;
        while (at != kNil && (n.birth < dom.nodes[at].birth ||
                              (n.birth == dom.nodes[at].birth &&
                               n.key < dom.nodes[at].key)))
            at = dom.nodes[at].prev;
        linkAfter(dom, b, at, s);
    }

    /** Link slot @p s into bucket @p b after slot @p at (kNil: first). */
    static void
    linkAfter(Domain &dom, std::uint32_t b, std::uint32_t at,
              std::uint32_t s)
    {
        TickBucket &bk = dom.buckets[b];
        Node &n = dom.nodes[s];
        n.prev = at;
        n.next = at == kNil ? bk.head : dom.nodes[at].next;
        (at == kNil ? bk.head : dom.nodes[at].next) = s;
        (n.next == kNil ? bk.tail : dom.nodes[n.next].prev) = s;
        dom.occupied[b / 64] |= std::uint64_t{1} << (b % 64);
        ++dom.near;
    }

    /** Take the first record out of non-empty bucket @p b. */
    static void
    unlinkHead(Domain &dom, std::uint32_t b)
    {
        TickBucket &bk = dom.buckets[b];
        bk.head = dom.nodes[bk.head].next;
        if (bk.head == kNil) {
            bk.tail = kNil;
            dom.occupied[b / 64] &= ~(std::uint64_t{1} << (b % 64));
        } else {
            dom.nodes[bk.head].prev = kNil;
        }
        --dom.near;
    }

    /**
     * The bucket of the earliest near tick: the first occupied bucket
     * from now's, wrapping once round the window.
     * @pre dom.near != 0
     */
    static std::uint32_t
    firstBucket(const Domain &dom)
    {
        const std::uint32_t start = std::uint32_t(dom.now % kWindow);
        std::uint32_t w = start / 64;
        std::uint64_t bits =
            dom.occupied[w] & (~std::uint64_t{0} << (start % 64));
        while (bits == 0) {
            w = (w + 1) % kWords;
            bits = dom.occupied[w];
        }
        return w * 64 + std::uint32_t(std::countr_zero(bits));
    }

    /**
     * Move @p dom 's clock to @p t, the tick of the record firing now,
     * and pull the far records the window now covers into their
     * buckets. They arrive in firing order into buckets that held only
     * ticks before @p t, which are all fired.
     */
    static void
    advance(Domain &dom, Tick t)
    {
        dom.now = t;
        while (!dom.far.empty() && dom.far.top().when - t < kWindow)
            fileNear(dom, dom.far.pop().slot);
    }

    /**
     * Run @p f as the host tag: scheduling from outside any execution
     * context. A multi-domain queue has no implied context.
     */
    template <class F>
    std::invoke_result_t<F &>
    asHost(F &&f)
    {
        barre_assert(!multiDomain(),
                     "tagged schedule outside any execution context");
        TagScope host(*this, kHostTag);
        return f();
    }

    /** Admit tag @p t: a default queue grows its tag set on demand;
     *  a partition plan's tag set is fixed. */
    void
    reachTag(SeqTag t)
    {
        if (t < tag_domain_.size()) [[likely]]
            return;
        barre_assert(open_, "tag %u outside the partition plan's %zu tags",
                     unsigned(t), tag_domain_.size());
        tag_domain_.resize(std::size_t(t) + 1, 0);
        ctr_.resize(std::size_t(t) + 1);
        digest_.resize(std::size_t(t) + 1);
    }

    /** Next composite key for events originated by tag @p t. */
    std::uint64_t
    allocKey(SeqTag t)
    {
        return (std::uint64_t(t) << 48) | ++ctr_[t].v;
    }

    void
    digestFire(const Node &r)
    {
        std::uint64_t h = digest_[r.tag].v;
        h = mix(h, r.when);
        h = mix(h, r.birth);
        h = mix(h, r.key);
        digest_[r.tag].v = h;
    }

    static std::uint64_t
    mix(std::uint64_t h, std::uint64_t v)
    {
        h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
        return h;
    }

    /** Give every domain an empty lane to every domain, per parity. */
    void
    sizeLanes()
    {
        for (Domain &d : domains_)
            for (std::vector<Lane> &lanes : d.out)
                lanes = std::vector<Lane>(domains_.size());
    }

    /**
     * Move the sends staged for domain @p d in the previous epoch into
     * its queue, replaying the arbitration ops in global key order
     * through their hooks as their owner tags. Runs as @p d 's worker,
     * inside its execution context.
     */
    void drainInbound(std::uint32_t d);

    /** Structural audit of one domain (see auditInvariants()). */
    void auditDomain(std::uint32_t d) const;

    std::vector<std::uint32_t> tag_domain_;
    std::vector<Domain> domains_;
    std::vector<PaddedU64> ctr_;    ///< per-tag key counters
    std::vector<PaddedU64> digest_; ///< per-tag firing hash chains
    /** Default-constructed: tags join on demand and run() drains. */
    bool open_ = true;
    bool running_ = false;
    Tick horizon_ = 0;
    /** Horizon of the epoch whose lanes runEpoch() drains. */
    Tick staged_horizon_ = 0;
    /** Outbox parity senders append to this epoch. */
    unsigned parity_ = 0;
    std::uint64_t epochs_ = 0;
};

} // namespace barre
