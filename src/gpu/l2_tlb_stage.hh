/**
 * @file
 * The L2 TLB miss path, one copy for a chiplet's private L2 TLB and the
 * package-shared L2 TLB hypothetical (Fig 5/6).
 *
 * The stage owns the TLB, its MSHR file, the requests parked on a full
 * file (Fig 4's back-pressure) and the per-requester demand-miss and
 * retry counters. A lookup charges the lookup latency, then hits,
 * parks, merges onto the in-flight miss, or allocates an MSHR and hands
 * the miss to the owner's launch hook. The owner returns the
 * translation through fill(), which installs it, completes the MSHR and
 * wakes every parked request as one batch: after the retry interval and
 * another lookup latency the batch re-runs the lookup step in FIFO
 * order for each request that can make progress, and re-parks the rest
 * as they are (see runBatch for why that is exact).
 *
 * Where the events run is the owner's business: a chiplet's stage runs
 * under its tag, the shared stage under the host tag behind per-chiplet
 * links (gpu/shared_tlb.hh).
 */

#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "gpu/translation_service.hh"
#include "sim/flat_map.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"
#include "tlb/mshr.hh"
#include "tlb/tlb.hh"

namespace barre
{

// domain-owner:shared — bound per instance: a chiplet's private stage to
// its tag, the package-shared stage to the host tag (bindDomains).
class L2TlbStage : public SimObject
{
  public:
    /** Runs with the entry once the request is served. */
    using Cont = Mshr<TlbEntry>::Callback;
    /** Starts the translation of requester @p src 's primary miss. */
    using Launch = InlineFn<void(ChipletId src, ProcessId, Vpn)>;
    /** Debug hook fired for every fill before it installs. */
    using Validator = InlineFn<void(ProcessId, Vpn, Pfn, bool calculated)>;

    /** Serves requesters first .. first + requesters - 1. */
    L2TlbStage(EventQueue &eq, std::string name, const TlbParams &params,
               ChipletId first, std::uint32_t requesters,
               Cycles retry_interval, Launch launch);

    /** Observes installs (F-Barre filters, Least spill, ...). */
    void setService(TranslationService *svc) { service_ = svc; }
    void setValidator(Validator v) { validator_ = std::move(v); }

    /**
     * The stage's TLB. Its insert listener belongs to the stage: every
     * new entry readies the requests parked on its key.
     */
    Tlb &tlb() { return tlb_; }
    const Counter &misses(ChipletId src) const
    {
        return misses_[src - first_];
    }
    const Counter &mshrRetries(ChipletId src) const
    {
        return retries_[src - first_];
    }
    /** Requests of @p src parked on the full MSHR file right now. */
    std::uint64_t parked(ChipletId src) const
    {
        return parked_[src - first_];
    }
    std::size_t mshrOccupancy() const { return mshr_.occupancy(); }

    void
    bindDomains(DomainGuard *guard, SeqTag tag, const std::string &owner)
    {
        tlb_.bindDomain(guard, tag, owner + ".l2tlb");
        mshr_.bindDomain(guard, tag, owner + ".l2mshr");
    }

    /**
     * Look up (pid, vpn) for requester @p src after the lookup latency;
     * @p cont runs with the entry on a hit or when the miss completes.
     * A hit calls @p cont as given; it is type-erased only to park or
     * to wait on an MSHR.
     */
    template <typename C>
    void
    lookup(ChipletId src, ProcessId pid, Vpn vpn, C cont)
    {
        auto k = [this, src, pid, vpn, cont = std::move(cont)]() mutable {
            step(src, pid, vpn, std::move(cont));
        };
        // A continuation of two words (a chiplet's {this, slot}) keeps
        // the lookup event inside InlineFn's buffer.
        static_assert(fitsInlineBuffer<decltype(k)>() ||
                          !fitsInlineBuffer<C, 16>(),
                      "a two-word continuation must keep lookup inline");
        after(tlb_.params().lookup_latency, std::move(k));
    }

    /**
     * The translation of @p src 's primary miss arrived: validate,
     * install, complete the MSHR, wake the parked requests.
     */
    void fill(ChipletId src, const AtsResponse &resp);

    /**
     * Install a translation nobody waits for (IOMMU multicast push,
     * Valkyrie prefetch). No MSHR completes and nothing wakes: parked
     * requests see the entry at the next completion's wake.
     */
    void unsolicitedFill(ChipletId src, const AtsResponse &resp)
    {
        install(src, resp);
    }

    /**
     * Deep audit (sim/invariant.hh) of the parked index: every parked
     * request whose key is resident or in flight is ready, the key
     * index and the park order hold the same requests, and the
     * per-requester parked counts match. Panics on a violation.
     */
    void auditParkedIndex() const;

    /// @name Corruption hooks for the audit's own tests
    /// @{
    /** Clear every parked request's ready mark. */
    void debugUnreadyAll();
    /** Drop the first request in park order from the key index. */
    void debugUnindexFirst();
    /// @}

  private:
    using Key = Mshr<TlbEntry>::Key;
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
    static constexpr std::uint64_t kAuditPeriod = 64;

    /** A parked request; its slot id is stable until it leaves. */
    struct Parked
    {
        ChipletId src;
        ProcessId pid;
        Vpn vpn;
        Cont cont;
        /** Next parked slot with the same key (key_head_'s chain). */
        std::uint32_t next_same_key = kNoSlot;
    };

    /** What a batch reads of every parked slot, kept dense. */
    struct SlotState
    {
        std::uint32_t requester = 0; ///< src - first_
        /** The key was installed or went into flight since it parked. */
        bool ready = false;
    };

    /** Hit, park on a full MSHR file, merge, or launch the miss. */
    template <typename C>
    void
    step(ChipletId src, ProcessId pid, Vpn vpn, C &&cont)
    {
        if (auto te = tlb_.lookup(pid, vpn)) {
            cont(*te);
            return;
        }
        const auto key = Mshr<TlbEntry>::keyOf(pid, vpn);
        // A full file with no in-flight entry to merge onto parks the
        // request until a completion frees a slot. The demand miss is
        // counted when the request proceeds, so retries are not
        // double counted.
        if (!mshr_.inFlight(key) && mshr_.full()) {
            ++retries_[src - first_];
            park(src, pid, vpn, Cont(std::forward<C>(cont)));
            return;
        }
        ++misses_[src - first_];
        if (mshr_.allocate(key, std::forward<C>(cont)) ==
            Mshr<TlbEntry>::Outcome::primary) {
            markReady(key);
            launch_(src, pid, vpn);
        }
    }

    /** Mark the requests parked on @p key ready. */
    void
    markReady(Key key)
    {
        if (slots_.size() != free_.size())
            markParked(key);
    }
    void markParked(Key key);

    /** Give a request a slot at the tail of the park order. */
    void park(ChipletId src, ProcessId pid, Vpn vpn, Cont cont);
    /** Take request @p id out of its slot and the key index. */
    Parked unpark(std::uint32_t id);
    /** Take slot @p id out of its key's chain. */
    void unindex(std::uint32_t id);

    /** onResponse, insert, onL2Insert. */
    TlbEntry install(ChipletId src, const AtsResponse &resp);
    /** Release every parked request as one retry batch. */
    void wake();
    /** Run the oldest woken batch; @p ticket is its wake number. */
    void runBatch(std::uint64_t ticket);

    ChipletId first_;
    Cycles retry_interval_;
    Launch launch_;
    TranslationService *service_ = nullptr;
    Validator validator_;
    Tlb tlb_;
    Mshr<TlbEntry> mshr_;

    /// @name Parked requests
    /// Slots are stable; the park order lives in id lists. The oldest
    /// requests are in woken batches (oldest batch first), the rest in
    /// waiting_, each list in park order.
    /// @{
    std::vector<Parked> slots_;
    std::vector<SlotState> state_; ///< by slot id
    std::vector<std::uint32_t> free_;
    std::vector<std::uint32_t> waiting_;
    std::deque<std::vector<std::uint32_t>> batches_;
    std::uint64_t woken_ = 0; ///< batches woken so far
    std::uint64_t ran_ = 0;   ///< batches run so far
    /** Key -> first parked slot with that key. */
    FlatMap<Key, std::uint32_t> key_head_;
    std::vector<std::uint64_t> parked_; ///< per requester
    std::uint64_t audit_tick_ = 0;      ///< BARRE_AUDIT_EVERY counter
    /// @}

    std::vector<Counter> misses_;
    std::vector<Counter> retries_;
};

} // namespace barre
