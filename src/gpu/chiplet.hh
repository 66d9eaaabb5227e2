/**
 * @file
 * One GPU chiplet: per-CU L1 TLBs and L1 caches, the chiplet-shared L2
 * TLB (with MSHRs), the L2 data cache, and local DRAM (Fig 3 geometry,
 * Table II parameters).
 *
 * The chiplet implements the full per-access pipeline:
 *   L1 TLB -> [Valkyrie sibling-L1 probe] -> L2 TLB -> translation
 *   service -> data access (L1 cache -> local/remote L2 -> DRAM),
 * charging migration stalls and counting the statistics the evaluation
 * needs (L2 TLB MPKI, remote accesses, ...).
 */

#pragma once

#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "driver/migration.hh"
#include "gpu/shared_tlb.hh"
#include "gpu/translation_service.hh"
#include "mem/dram.hh"
#include "mem/memory_map.hh"
#include "noc/interconnect.hh"
#include "sim/sim_object.hh"
#include "tlb/mshr.hh"
#include "tlb/tlb.hh"

namespace barre
{

struct ChipletParams
{
    std::uint32_t cus = 64; ///< 4 SAs x 16 CUs (Table II)
    TlbParams l1_tlb{64, 64, 1, 16};
    TlbParams l2_tlb{512, 16, 10, 16};
    CacheParams l1_cache{16 * 1024, 4, 64, 1, 16};
    CacheParams l2_cache{2 * 1024 * 1024, 16, 64, 20, 64};
    DramParams dram{};
    PageSize page_size = PageSize::size4k;
    /** Valkyrie's inter-L1 TLB probing within the chiplet. */
    bool sibling_l1_probe = false;
    Cycles sibling_probe_latency = 3;
    /** Retry pacing when the L2 TLB MSHRs are full. */
    Cycles retry_interval = 20;
    std::uint32_t remote_req_bytes = 16;
    std::uint32_t remote_resp_bytes = 64;

    bool operator==(const ChipletParams &) const = default;
};

// domain-owner:chiplet — everything under a chiplet (L1 TLBs/caches,
// the owned L2 TLB + MSHRs, the L2 cache) belongs to its tag; remote
// data and shared-L2 traffic crosses over the interconnect.
class Chiplet : public SimObject
{
  public:
    Chiplet(EventQueue &eq, std::string name, ChipletId id,
            const ChipletParams &params, const MemoryMap &map,
            Interconnect &noc);

    ChipletId id() const { return id_; }

    /** Bind every component this chiplet owns to its sequencing tag. */
    void
    bindDomains(DomainGuard *guard)
    {
        const SeqTag tag = chipletTag(id_);
        for (std::size_t cu = 0; cu < l1_tlbs_.size(); ++cu) {
            l1_tlbs_[cu]->bindDomain(
                guard, tag, name() + ".l1tlb" + std::to_string(cu));
            l1_caches_[cu]->bindDomain(
                guard, tag, name() + ".l1c" + std::to_string(cu));
        }
        // The shared-L2 hypothetical binds its TLB/MSHR to the host
        // tag in SharedTlbService::bindDomains() instead.
        if (owned_l2_tlb_)
            owned_l2_tlb_->bindDomain(guard, tag, name() + ".l2tlb");
        if (owned_l2_mshr_)
            owned_l2_mshr_->bindDomain(guard, tag, name() + ".l2mshr");
        l2_cache_->bindDomain(guard, tag, name() + ".l2c");
    }

    /** Wire the translation service (after all chiplets exist). */
    void setService(TranslationService *svc) { service_ = svc; }

    /**
     * Debug hook fired for every translation response before it fills
     * the L2 TLB; tests use it to check calculated PFNs against the
     * authoritative page table.
     */
    using TranslationValidator =
        InlineFn<void(ProcessId, Vpn, Pfn, bool calculated)>;
    void setValidator(TranslationValidator v) { validator_ = std::move(v); }
    void setMigrator(AcudMigrator *m) { migrator_ = m; }
    /**
     * Route L2-TLB traffic to the package-shared service (the Fig 5/6
     * hypothetical). Translation requests travel over the service's
     * per-chiplet request/response links instead of touching a local
     * L2 TLB/MSHR; this chiplet's owned structures are dropped.
     */
    void connectSharedTlb(SharedTlbService *svc);
    /** Register the peer chiplets for remote data access. */
    void setPeers(std::vector<Chiplet *> peers);

    Tlb &l2Tlb() { return *l2_tlb_; }
    Tlb &l1Tlb(CuId cu) { return *l1_tlbs_[cu]; }
    const ChipletParams &params() const { return params_; }

    /**
     * Issue one memory access from CU @p cu; @p done fires when the
     * access (translation + data) completes.
     */
    void access(CuId cu, ProcessId pid, Addr vaddr,
                EventQueue::Callback done);

    /** Serve a data access arriving from a peer chiplet. */
    void serveRemoteData(Addr paddr, EventQueue::Callback done);

    /**
     * Install an unsolicited translation (IOMMU multicast push,
     * §IV-B ablation). No MSHR completes; the fill just lands in the
     * L2 TLB for later demand hits.
     */
    void
    unsolicitedFill(const AtsResponse &resp)
    {
        if (resp.pfn == invalid_pfn)
            return;
        if (service_)
            service_->onResponse(id_, resp);
        if (shared_svc_) {
            // The fill crosses to the host-owned shared block as a
            // message; the insert happens there.
            shared_svc_->unsolicitedFillFrom(id_, resp);
            return;
        }
        TlbEntry te;
        te.pid = resp.pid;
        te.vpn = resp.vpn;
        te.pfn = resp.pfn;
        te.coal = resp.coal;
        te.valid = true;
        l2_tlb_->insert(te);
        if (service_)
            service_->onL2Insert(id_, te);
    }

    /** Invalidate translations for @p vpns everywhere in this chiplet. */
    void shootdownVpns(ProcessId pid, const std::vector<Vpn> &vpns);

    /**
     * Process-exit shootdown: drop every translation @p pid owns from
     * this chiplet's L1 TLBs and (owned) L2 TLB. @return entries
     * invalidated. The package-shared L2 TLB hypothetical is host-
     * owned and out of scope here (the scenario engine excludes it).
     */
    std::uint64_t shootdownAsid(ProcessId pid);

    /**
     * Audit helper: entries @p pid still holds anywhere in this
     * chiplet (all L1 TLBs plus the owned L2 TLB). Must be 0 after the
     * process's exit shootdown — System::auditNoStaleAsid().
     */
    std::uint64_t
    asidResidency(ProcessId pid) const
    {
        std::uint64_t n = 0;
        for (const auto &tlb : l1_tlbs_)
            n += tlb->occupancy(pid);
        if (owned_l2_tlb_)
            n += owned_l2_tlb_->occupancy(pid);
        return n;
    }

    /**
     * Observer for per-access translation latency (ticks from issue to
     * translated data access), keyed by process — feeds the
     * multi-tenant p50/p95/p99 metrics. Fired on this chiplet's event
     * context.
     */
    using LatencyProbe = InlineFn<void(ProcessId, Cycles)>;
    void setLatencyProbe(LatencyProbe p) { lat_probe_ = std::move(p); }

    /// @name Statistics
    /// @{
    void
    regStats(StatRegistry &stats) const
    {
        stats.add(name() + ".l2tlb.accesses", l2_demand_accesses_);
        // Demand misses (the MPKI numerator) and retries: the shared
        // block counts them per requester on the host side.
        stats.add(name() + ".l2tlb.misses",
                  shared_svc_ ? shared_svc_->demandMisses(id_)
                              : l2_demand_misses_);
        stats.add(name() + ".l2tlb.mshr_retries",
                  shared_svc_ ? shared_svc_->mshrRetries(id_)
                              : mshr_retries_);
        stats.add(name() + ".data.local", local_data_);
        stats.add(name() + ".data.remote", remote_data_);
        stats.add(name() + ".l1tlb.sibling_hits", sibling_hits_);
    }

    std::uint64_t l2TlbAccesses() const { return l2_demand_accesses_.value(); }
    Dram &dram() { return *dram_; }
    /// @}

  private:
    struct Parked
    {
        CuId cu;
        ProcessId pid;
        Addr vaddr;
        Vpn vpn;
        Tick t0;
        EventQueue::Callback done;
    };

    void translateAtL2(CuId cu, ProcessId pid, Addr vaddr, Vpn vpn,
                       Tick t0, EventQueue::Callback done);
    /**
     * The owned L2 stage, after the lookup latency: hit, park on a full
     * MSHR file, merge, or launch the translation.
     */
    void l2Stage(CuId cu, ProcessId pid, Addr vaddr, Vpn vpn, Tick t0,
                 EventQueue::Callback done);
    /** Release requests parked on this chiplet's full MSHR file. */
    void unparkWaiters();
    void dataAccess(CuId cu, ProcessId pid, Addr vaddr,
                    const TlbEntry &te, Tick t0,
                    EventQueue::Callback done);

    std::uint32_t pageShift() const
    {
        return barre::pageShift(params_.page_size);
    }

    ChipletId id_;
    ChipletParams params_;
    const MemoryMap &map_;
    Interconnect &noc_;
    TranslationService *service_ = nullptr;
    // domain-cross:message — recordAccess() runs on the migrator's
    // per-chiplet shard; migration requests/shootdowns ride PCIe.
    AcudMigrator *migrator_ = nullptr;
    // domain-cross:message — reached only through its per-chiplet
    // request/response links.
    SharedTlbService *shared_svc_ = nullptr;
    TranslationValidator validator_;
    LatencyProbe lat_probe_;
    std::vector<Chiplet *> peers_;

    std::vector<std::unique_ptr<Tlb>> l1_tlbs_;
    std::vector<std::unique_ptr<Cache>> l1_caches_;
    std::unique_ptr<Tlb> owned_l2_tlb_;
    Tlb *l2_tlb_ = nullptr;
    std::unique_ptr<Mshr<TlbEntry>> owned_l2_mshr_;
    Mshr<TlbEntry> *l2_mshr_ = nullptr;
    std::unique_ptr<Cache> l2_cache_;
    std::unique_ptr<Dram> dram_;

    std::vector<Parked> parked_;

    Counter sibling_hits_;
    Counter remote_data_;
    Counter local_data_;
    Counter mshr_retries_;
    Counter l2_demand_accesses_;
    Counter l2_demand_misses_;
};

} // namespace barre

