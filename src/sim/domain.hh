/**
 * @file
 * The event engine: sequencing tags, per-domain event heaps with their
 * callbacks in a slab, and the cross-domain staging that lets domains
 * advance in parallel.
 *
 * The simulated system is split into *tags* — the finest units that are
 * never divided across threads (the host/IOMMU side is tag 0, chiplet c
 * is tag 1+c) — and tags are grouped into *domains*. All domains
 * advance in lock-step epochs [S, S + lookahead), where `lookahead` is
 * the minimum over all cross-domain links of (1 serialization cycle +
 * propagation latency): nothing sent inside an epoch can land before
 * its horizon. Cross-domain sends stage in the sending domain's outbox
 * until the barrier that ends the epoch, where one thread moves them
 * into their destination heaps. One domain holding every tag is the
 * serial run: it drains in a single epoch.
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
 * index) and replayed through an ArbHook in key order at the epoch
 * barrier.
 */

#pragma once

#include <algorithm>
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
 * inline send would, and returns the delivery tick.
 */
class ArbHook
{
  public:
    virtual Tick arbitrate(Tick send_tick, std::uint64_t bytes) = 0;

  protected:
    ~ArbHook() = default;
};

/**
 * The event queue of one simulated system: one 4-ary heap of firing
 * records per domain ordered by the composite key, the callbacks those
 * records name in a per-domain slab, per-tag key counters and firing
 * digests, and one outbox per sending domain that stages cross-domain
 * sends until the epoch barrier drains it.
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
 * per-domain and per-tag state is single-writer — including the
 * domain's outbox, which only its own worker appends to. drainStaged()
 * and beginEpoch() run on one thread while the others wait at a
 * barrier, whose release/acquire ordering publishes every append
 * before the drain and every drained event before the next epoch.
 */
class EventQueue
{
  public:
    using Callback = InlineFn<void()>;

    EventQueue() : tag_domain_(1, 0), domains_(1), ctr_(1), digest_(1) {}

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
        for (const Domain &d : domains_)
            n += d.heap.size() - d.hole + d.out.size() + d.arb_out.size();
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
     * cross-domain sends during a run stage in the sender's outbox
     * until the epoch barrier.
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
        src.out.push_back(Staged{r, std::move(cb)});
    }

    /**
     * Send through a shared resource owned by tag @p owner. Serial (or
     * single-domain) operation resolves the arbitration inline and
     * returns the delivery tick; parallel operation stages the op for
     * key-ordered replay at the epoch barrier and returns 0 (the
     * arrival is unknowable until every competitor that sorts earlier
     * is visible).
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
        src.arb_out.push_back(StagedArb{sent, ctx.ev_birth, ctx.ev_key,
                                        ctx.op_ctr++, allocKey(ctx.tag),
                                        owner, bytes, &hook,
                                        std::move(deliver)});
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

    /** Mark the start/end of parallel execution. */
    void setRunning(bool r) { running_ = r; }

    /** Publish the next epoch's horizon (exclusive upper tick). */
    void beginEpoch(Tick horizon) { horizon_ = horizon; }

    /**
     * Fire every event of domain @p d with tick < @p horizon. The
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
        std::uint64_t fired = 0;
        while (!dom.heap.empty() && dom.heap.top().when < horizon) {
            const Record r = dom.heap.top();
            // Move the callback out first: it may schedule into this
            // slab, which can reallocate, and its slot is free again.
            // The fired record stays on top as a hole that the
            // callback's first push into this domain fills: one sift
            // instead of a pop and a push. Unfilled, it is popped after
            // the callback, also when the callback throws.
            Callback cb = std::move(dom.slab[r.slot]);
            dom.free.push_back(r.slot);
            dom.hole = true;
            HoleScope pop_unfilled{dom};
            dom.now = r.when;
            ctx.tag = r.tag;
            ctx.ev_birth = r.birth;
            ctx.ev_key = r.key;
            ctx.op_ctr = 0;
            digestFire(r);
            cb();
            ++fired;
            BARRE_AUDIT_EVERY(dom.audit_tick, kAuditPeriod,
                              auditDomain(d));
        }
        dom.fired += fired;
        return fired;
    }

    /**
     * Barrier-phase replay: sort all staged arbitration ops into
     * global key order, resolve each through its hook, and move every
     * staged event into its destination domain's heap. Runs on one
     * thread while all workers wait.
     */
    void drainStaged();

    /** Earliest pending tick across all domains (max_tick if none). */
    Tick
    nextEventTick() const
    {
        Tick t = max_tick;
        for (const Domain &d : domains_)
            if (!d.heap.empty())
                t = std::min(t, d.heap.top().when);
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
     * Deep audit of every domain (see sim/invariant.hh): the 4-ary
     * heap order on (when, birth, key), no record in the past or owned
     * by another domain's tag, every record naming a live callback in
     * the slab, no free-list slot named by a record or listed twice,
     * and heap plus free list covering the slab exactly. Panics
     * (throws) on violation. O(pending).
     */
    void
    auditInvariants() const
    {
        for (std::uint32_t d = 0; d < domains(); ++d)
            auditDomain(d);
    }

    /**
     * Test hook: toggle @p slot 's membership in domain 0's free list
     * behind the heap's back — freeing a live callback's slot, or
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

    /**
     * One pending event's firing record: fires in (when, birth, key)
     * order; its callback waits in the domain's slab at @c slot, so
     * heap sifts move 32 bytes and never a callback.
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

    /** A cross-domain send awaiting the epoch barrier. */
    struct Staged
    {
        Record rec;
        Callback cb;
    };

    /** A shared-resource send awaiting key-ordered arbitration. */
    struct StagedArb
    {
        Tick sent;             ///< sender clock at send time
        Tick ev_birth;         ///< sending event's birth
        std::uint64_t ev_key;  ///< sending event's key
        std::uint32_t op_idx;  ///< nth op issued by that event
        std::uint64_t key;     ///< pre-allocated delivery key
        SeqTag owner;          ///< tag owning the shared resource
        std::uint64_t bytes;
        ArbHook *hook;
        Callback deliver;
    };

    struct alignas(64) Domain
    {
        QuadHeap<Record, RecordBefore> heap;
        /** Callbacks of the heap's records; free slots are empty. */
        std::vector<Callback> slab;
        std::vector<std::uint32_t> free; ///< reusable slab slots
        Tick now = 0;
        /** The heap's top was fired and awaits replacement. */
        bool hole = false;
        std::uint64_t fired = 0;
        std::uint64_t audit_tick = 0;
        /** Cross-domain sends staged this epoch (drained at the
         *  barrier); appended only by this domain's worker. */
        std::vector<Staged> out;
        std::vector<StagedArb> arb_out;
    };

    struct alignas(64) PaddedU64
    {
        std::uint64_t v = 0;
    };

    static constexpr std::uint64_t kAuditPeriod = 4096;

    static bool
    arbBefore(const StagedArb &a, const StagedArb &b)
    {
        if (a.sent != b.sent)
            return a.sent < b.sent;
        if (a.ev_birth != b.ev_birth)
            return a.ev_birth < b.ev_birth;
        if (a.ev_key != b.ev_key)
            return a.ev_key < b.ev_key;
        return a.op_idx < b.op_idx;
    }

    /** Park @p cb in a free slab slot of @p dom and queue @p r for it. */
    static void
    push(Domain &dom, Record r, Callback cb)
    {
        if (dom.free.empty()) {
            r.slot = std::uint32_t(dom.slab.size());
            dom.slab.push_back(std::move(cb));
        } else {
            r.slot = dom.free.back();
            dom.free.pop_back();
            dom.slab[r.slot] = std::move(cb);
        }
        if (dom.hole) {
            dom.hole = false;
            dom.heap.replaceTop(r);
        } else {
            dom.heap.push(r);
        }
    }

    /** Pops runEpoch's fired record if no push replaced it. */
    struct HoleScope
    {
        Domain &dom;

        ~HoleScope()
        {
            if (dom.hole) {
                dom.hole = false;
                dom.heap.pop();
            }
        }
    };

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
    digestFire(const Record &r)
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

    /** Structural audit of one domain (see auditInvariants()). */
    void auditDomain(std::uint32_t d) const;

    std::vector<std::uint32_t> tag_domain_;
    std::vector<Domain> domains_;
    std::vector<PaddedU64> ctr_;    ///< per-tag key counters
    std::vector<PaddedU64> digest_; ///< per-tag firing hash chains
    /** Drain-time sort buffer; reused so steady state allocates 0. */
    std::vector<StagedArb> scratch_arb_;
    /** Default-constructed: tags join on demand and run() drains. */
    bool open_ = true;
    bool running_ = false;
    Tick horizon_ = 0;
};

} // namespace barre
