/**
 * @file
 * Conservative-PDES core: sequencing tags, per-domain event heaps, and
 * the cross-domain staging behind EventQueue's partitioned mode.
 *
 * The simulated system is split into *tags* — the finest units that are
 * never divided across threads (the host/IOMMU side is tag 0, chiplet c
 * is tag 1+c) — and tags are grouped into *domains*. All domains
 * advance in lock-step epochs [S, S + lookahead), where `lookahead` is
 * the minimum over all cross-domain links of (1 serialization cycle +
 * propagation latency): nothing sent inside an epoch can land before
 * its horizon. Cross-domain sends stage in the sending domain's outbox
 * until the barrier that ends the epoch, where one thread moves them
 * into their destination heaps.
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
 * domains, on 1 or N threads. fireDigests() condenses that order into
 * one hash chain per tag so tests can assert bitwise identity cheaply.
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

class TaggedEngine;

/**
 * Per-thread execution context: which engine/domain/tag the code on
 * this thread is currently simulating, plus the identity of the event
 * being executed (its birth tick and composite key) so that staged
 * arbitration ops can be keyed by their originating event.
 */
struct ExecCtx
{
    TaggedEngine *engine = nullptr;
    std::uint32_t domain = 0;
    SeqTag tag = 0;
    Tick ev_birth = 0;
    std::uint64_t ev_key = 0;
    std::uint32_t op_ctr = 0; ///< arbitration ops issued by this event
};

namespace detail
{
inline thread_local ExecCtx tls_exec;
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
 * data race. In legacy/serial mode there is a single shard and the
 * behaviour is identical to Counter. value() sums the shards; call it
 * only outside the parallel run (System teardown / metrics harvest).
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
        // Legacy/serial mode runs single-threaded on one shard but
        // (since the domain audit landed) still stamps real tags on
        // events for ownership attribution — any tag may bump here.
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
 * The partitioned-mode engine owned by an EventQueue: one 4-ary event
 * heap per domain ordered by the composite key, per-tag key counters
 * and firing digests, and one outbox per sending domain that stages
 * cross-domain sends until the epoch barrier drains it.
 *
 * Threading contract: domain d is only ever advanced by one worker at
 * a time (runEpoch), and a tag lives in exactly one domain, so all
 * per-domain and per-tag state is single-writer — including the
 * domain's outbox, which only its own worker appends to. drainStaged()
 * and beginEpoch() run on one thread while the others wait at a
 * barrier, whose release/acquire ordering publishes every append
 * before the drain and every drained event before the next epoch.
 */
class TaggedEngine
{
  public:
    using Callback = InlineFn<void()>;

    /**
     * @param tag_domain  domain index for each tag; size = tag count.
     * @param domains     number of domains (>= 1).
     */
    TaggedEngine(std::vector<std::uint32_t> tag_domain,
                 std::uint32_t domains)
        : tag_domain_(std::move(tag_domain)),
          domains_(domains),
          ctr_(tag_domain_.size()),
          digest_(tag_domain_.size())
    {
        barre_assert(domains >= 1, "need at least one domain");
        for (std::uint32_t d : tag_domain_)
            barre_assert(d < domains,
                         "tag mapped to domain %u of %u", d, domains);
    }

    TaggedEngine(const TaggedEngine &) = delete;
    TaggedEngine &operator=(const TaggedEngine &) = delete;

    std::uint32_t domains() const { return std::uint32_t(domains_.size()); }
    std::size_t tagCount() const { return tag_domain_.size(); }
    bool multiDomain() const { return domains_.size() > 1; }
    std::uint32_t tagDomain(SeqTag t) const { return tag_domain_[t]; }

    /**
     * Current time. Inside an execution context this is the executing
     * domain's clock; outside (setup done, run finished) it is the
     * global maximum — the tick of the last event fired anywhere,
     * matching what a serial queue's now() reports after run().
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
            n += d.heap.size() + d.out.size() + d.arb_out.size();
        return n;
    }

    bool empty() const { return pending() == 0; }

    /** Schedule @p cb on the current tag at absolute tick @p when. */
    void
    schedule(Tick when, Callback cb)
    {
        ExecCtx &ctx = detail::tls_exec;
        barre_assert(ctx.engine == this,
                     "tagged schedule outside any execution context");
        Domain &dom = domains_[ctx.domain];
        barre_assert(when >= dom.now,
                     "scheduling into the past (%llu < %llu)",
                     (unsigned long long)when,
                     (unsigned long long)dom.now);
        dom.heap.push(Entry{when, dom.now, allocKey(ctx.tag), ctx.tag,
                            std::move(cb)});
    }

    /** Schedule @p cb on the current tag @p delay cycles from now. */
    void
    scheduleAfter(Cycles delay, Callback cb)
    {
        ExecCtx &ctx = detail::tls_exec;
        barre_assert(ctx.engine == this,
                     "tagged schedule outside any execution context");
        Domain &dom = domains_[ctx.domain];
        dom.heap.push(Entry{dom.now + delay, dom.now, allocKey(ctx.tag),
                            ctx.tag, std::move(cb)});
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
        barre_assert(ctx.engine == this,
                     "tagged schedule outside any execution context");
        const std::uint32_t dd = tag_domain_[dst];
        Domain &src = domains_[ctx.domain];
        Entry e{when, src.now, allocKey(ctx.tag), dst, std::move(cb)};
        if (!running_ || dd == ctx.domain) {
            barre_assert(when >= domains_[dd].now,
                         "cross schedule into the past");
            domains_[dd].heap.push(std::move(e));
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
        src.out.push_back(std::move(e));
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
        barre_assert(ctx.engine == this,
                     "tagged stageArb outside any execution context");
        Domain &src = domains_[ctx.domain];
        const Tick sent = src.now;
        if (!running_ || !multiDomain()) {
            const Tick arrive = hook.arbitrate(sent, bytes);
            domains_[tag_domain_[owner]].heap.push(
                Entry{arrive, sent, allocKey(ctx.tag), owner,
                      std::move(deliver)});
            return arrive;
        }
        src.arb_out.push_back(StagedArb{sent, ctx.ev_birth, ctx.ev_key,
                                        ctx.op_ctr++, allocKey(ctx.tag),
                                        owner, bytes, &hook,
                                        std::move(deliver)});
        return 0;
    }

    // -- scheduler driving (DomainScheduler / tests) ------------------

    /** Mark the start/end of parallel execution. */
    void setRunning(bool r) { running_ = r; }
    bool running() const { return running_; }

    /** Publish the next epoch's horizon (exclusive upper tick). */
    void beginEpoch(Tick horizon) { horizon_ = horizon; }
    Tick horizon() const { return horizon_; }

    /**
     * Fire every event of domain @p d with tick < @p horizon. The
     * domain's clock advances only to fired events' ticks (never to
     * the horizon itself), so after the run now() lands exactly on the
     * last fired tick, as in serial mode.
     * @return events fired.
     */
    std::uint64_t
    runEpoch(std::uint32_t d, Tick horizon)
    {
        Domain &dom = domains_[d];
        ExecCtx &ctx = detail::tls_exec;
        ExecCtx saved = ctx;
        ctx.engine = this;
        ctx.domain = d;
        std::uint64_t fired = 0;
        while (!dom.heap.empty() && dom.heap.top().when < horizon) {
            Entry e = dom.heap.pop();
            dom.now = e.when;
            ctx.tag = e.tag;
            ctx.ev_birth = e.birth;
            ctx.ev_key = e.key;
            ctx.op_ctr = 0;
            digestFire(e);
            e.cb();
            ++fired;
            BARRE_AUDIT_EVERY(dom.audit_tick, kAuditPeriod,
                              auditDomain(d));
        }
        ctx = saved;
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

    /** Structural audit of one domain's heap (invariant builds). */
    void auditDomain(std::uint32_t d) const;

    /**
     * RAII bracket establishing an execution context for tag @p tag —
     * used by the System for setup-time scheduling (CU starts) that
     * happens outside any fired event.
     */
    class TagScope
    {
      public:
        TagScope(TaggedEngine *eng, SeqTag tag)
            : saved_(detail::tls_exec)
        {
            if (!eng)
                return;
            ExecCtx &ctx = detail::tls_exec;
            ctx.engine = eng;
            ctx.domain = eng->tag_domain_[tag];
            ctx.tag = tag;
            ctx.ev_birth = eng->domains_[ctx.domain].now;
            ctx.ev_key = std::uint64_t(tag) << 48;
            ctx.op_ctr = 0;
        }

        ~TagScope() { detail::tls_exec = saved_; }

        TagScope(const TagScope &) = delete;
        TagScope &operator=(const TagScope &) = delete;

      private:
        ExecCtx saved_;
    };

  private:
    /** One pending event: fires in (when, birth, key) order. */
    struct Entry
    {
        Tick when;
        Tick birth;        ///< sender domain's clock at schedule time
        std::uint64_t key; ///< origin tag << 48 | per-tag counter
        SeqTag tag;        ///< tag whose state the callback mutates
        Callback cb;
    };

    /** Firing order: lexicographic (when, birth, key). */
    struct EntryBefore
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when < b.when;
            if (a.birth != b.birth)
                return a.birth < b.birth;
            return a.key < b.key;
        }
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
        QuadHeap<Entry, EntryBefore> heap;
        Tick now = 0;
        std::uint64_t fired = 0;
        std::uint64_t audit_tick = 0;
        /** Cross-domain sends staged this epoch (drained at the
         *  barrier); appended only by this domain's worker. */
        std::vector<Entry> out;
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

    /** Next composite key for events originated by tag @p t. */
    std::uint64_t
    allocKey(SeqTag t)
    {
        return (std::uint64_t(t) << 48) | ++ctr_[t].v;
    }

    void
    digestFire(const Entry &e)
    {
        std::uint64_t h = digest_[e.tag].v;
        h = mix(h, e.when);
        h = mix(h, e.birth);
        h = mix(h, e.key);
        digest_[e.tag].v = h;
    }

    static std::uint64_t
    mix(std::uint64_t h, std::uint64_t v)
    {
        h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
        return h;
    }

    std::vector<std::uint32_t> tag_domain_;
    std::vector<Domain> domains_;
    std::vector<PaddedU64> ctr_;    ///< per-tag key counters
    std::vector<PaddedU64> digest_; ///< per-tag firing hash chains
    /** Drain-time sort buffer; reused so steady state allocates 0. */
    std::vector<StagedArb> scratch_arb_;
    bool running_ = false;
    Tick horizon_ = 0;
};

} // namespace barre
