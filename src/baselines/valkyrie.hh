/**
 * @file
 * Valkyrie baseline (Baruah et al., PACT'20), as extended by the paper
 * for MCM-GPUs (§VII-A): inter-L1 TLB locality sharing within a chiplet
 * (implemented by the chiplet's sibling-L1 probe, ChipletParams::
 * sibling_l1_probe) plus an L2 TLB next-page prefetcher, modeled here:
 * on every demand L2 miss, the service also requests vpn+1..vpn+degree
 * from the IOMMU and hands the responses to the fill sink, the
 * requesting chiplet's unsolicited-fill entry (Chiplet::unsolicitedFill).
 *
 * Partitionable by construction: all mutable prefetcher state (stride
 * window, pending set, in-flight credit, counters) is sharded per
 * chiplet and owned by that chiplet's tag, so translate() runs
 * entirely inside the requester's domain. IOMMU pressure is throttled
 * with a local credit counter — each chiplet tracks its own
 * outstanding ATS requests instead of synchronously reading the
 * host-owned queue occupancy (which a real chiplet could not do
 * either; the credit counter is what the PCIe endpoint would keep).
 */

#pragma once

#include <unordered_set>
#include <vector>

#include "gpu/translation_service.hh"
#include "sim/domain_guard.hh"
#include "sim/stats.hh"

namespace barre
{

struct ValkyrieParams
{
    bool prefetch = true;
    std::uint32_t prefetch_degree = 1;
    /**
     * Skip prefetching when this many of the chiplet's own
     * translations are in flight (local ATS credit counter).
     */
    std::uint32_t pressure_limit = 24;

    bool operator==(const ValkyrieParams &) const = default;
};

// domain-owner:shared — the service object is entered from every
// chiplet's context; every mutable member is per-chiplet state bound
// to that chiplet's tag in bindDomains().
class ValkyrieService : public TranslationService
{
  public:
    ValkyrieService(Iommu &iommu, const ValkyrieParams &params,
                    std::uint32_t chiplets)
        : iommu_(iommu), params_(params), l2_tlbs_(chiplets, nullptr),
          chips_(chiplets)
    {}

    /**
     * The L2 TLB chiplet @p c 's prefetches check for duplicates; null
     * when it cannot be peeked from chiplet context (the host-owned
     * shared L2 TLB), where the pending set alone gates duplicates.
     */
    void attachL2Tlb(ChipletId c, Tlb *tlb) { l2_tlbs_[c] = tlb; }

    /** Receives each prefetched translation, on its chiplet's context. */
    using FillSink = InlineFn<void(ChipletId, const AtsResponse &)>;
    void setFillSink(FillSink sink) { fill_sink_ = std::move(sink); }

    /** The prefetcher shard is chiplet state; see SharedTlbService. */
    bool translateNeedsRequester() const override { return true; }

    /** Bind each chiplet's prefetcher shard to its tag. */
    void
    bindDomains(DomainGuard *guard)
    {
        for (std::size_t c = 0; c < chips_.size(); ++c) {
            chips_[c].bindDomain(guard,
                                 chipletTag(static_cast<ChipletId>(c)),
                                 "valkyrie.chip" + std::to_string(c));
        }
    }

    void
    translate(ProcessId pid, Vpn vpn, ChipletId src,
              Iommu::ResponseHandler done) override
    {
        PerChiplet &ch = chips_[src];
        ch.domainCheck("translate");
        if (!params_.prefetch) {
            iommu_.sendAts(pid, vpn, src, std::move(done));
            return;
        }
        ++ch.in_flight;
        iommu_.sendAts(pid, vpn, src,
                       [this, src, done = std::move(done)](
                           const AtsResponse &resp) mutable {
                           --chips_[src].in_flight;
                           done(resp);
                       });
        // Stride gate: only prefetch when the chiplet's miss stream
        // looks sequential (vpn-1 missed recently); blind next-page
        // prefetching would flood the PTWs.
        bool streaming =
            ch.recent.contains((std::uint64_t{pid} << 52) ^ (vpn - 1));
        noteRecent(ch, pid, vpn);
        if (!streaming)
            return;
        // Don't add prefetch load when this chiplet already has many
        // translations outstanding.
        if (ch.in_flight >= params_.pressure_limit)
            return;
        for (std::uint32_t d = 1; d <= params_.prefetch_degree; ++d) {
            Vpn pv = vpn + d;
            std::uint64_t key = (std::uint64_t{pid} << 52) ^ pv;
            const bool cached =
                l2_tlbs_[src] != nullptr && l2_tlbs_[src]->peek(pid, pv);
            if (cached || ch.pending.contains(key))
                continue;
            ch.pending.insert(key);
            ++ch.prefetches;
            ++ch.in_flight;
            iommu_.sendAts(pid, pv, src,
                           [this, src, key](const AtsResponse &resp) {
                               PerChiplet &c2 = chips_[src];
                               --c2.in_flight;
                               c2.pending.erase(key);
                               if (resp.pfn == invalid_pfn)
                                   return;
                               ++c2.prefetch_fills;
                               fill_sink_(src, resp);
                           });
        }
    }

    std::uint64_t
    prefetches() const
    {
        std::uint64_t n = 0;
        for (const PerChiplet &ch : chips_)
            n += ch.prefetches.value();
        return n;
    }

    std::uint64_t
    prefetchFills() const
    {
        std::uint64_t n = 0;
        for (const PerChiplet &ch : chips_)
            n += ch.prefetch_fills.value();
        return n;
    }

  private:
    /**
     * One chiplet's prefetcher shard; only ever touched from its
     * owner's execution context (responses deliver at the chiplet).
     */
    struct alignas(64) PerChiplet : DomainOwned
    {
        std::unordered_set<std::uint64_t> recent;
        std::vector<std::uint64_t> recent_order;
        std::unordered_set<std::uint64_t> pending;
        /** Outstanding ATS requests (demand + prefetch). */
        std::uint32_t in_flight = 0;
        Counter prefetches;
        Counter prefetch_fills;
    };

    /** Sliding window of recent miss VPNs (stride gate). */
    void
    noteRecent(PerChiplet &ch, ProcessId pid, Vpn vpn)
    {
        std::uint64_t key = (std::uint64_t{pid} << 52) ^ vpn;
        if (ch.recent.insert(key).second) {
            ch.recent_order.push_back(key);
            if (ch.recent_order.size() > 64) {
                ch.recent.erase(ch.recent_order.front());
                ch.recent_order.erase(ch.recent_order.begin());
            }
        }
    }

    Iommu &iommu_;
    ValkyrieParams params_;
    FillSink fill_sink_;
    // domain-owner:chiplet domain-cross:message — peeked only by the
    // executing chiplet (l2_tlbs_[src]); fills go to the fill sink on
    // the IOMMU response path, which delivers under src's tag.
    std::vector<Tlb *> l2_tlbs_;
    std::vector<PerChiplet> chips_;
};

} // namespace barre
