/**
 * @file
 * The host-side IOMMU serving address-translation-service (ATS) requests
 * from the MCM-GPU over PCIe (paper §II-A, Fig 3).
 *
 * Pipeline per request: PCIe upstream -> (optional IOMMU TLB) -> PW-queue
 * -> one of N page-table walkers (500-cycle walks) -> response over PCIe
 * downstream.
 *
 * With Barre enabled, each PTW owns a PEC logic sharing the 5-entry PEC
 * buffer: after a walk returns a coalesced PTE, the PEC logic scans the
 * PW-queue for pending requests in the same coalescing group and
 * completes them with *calculated* PFNs, skipping their walks (§IV-F).
 * The coalescing-aware scheduler (§V-C) keeps requests that are
 * coalescible with an in-flight walk out of the walkers so the
 * calculation can catch them.
 */

#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "core/pec.hh"
#include "mem/memory_map.hh"
#include "mem/page_table.hh"
#include "noc/pcie.hh"
#include "sim/domain_guard.hh"
#include "sim/flat_map.hh"
#include "sim/inline_fn.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"
#include "tlb/tlb.hh"

namespace barre
{

struct IommuParams
{
    /** Page-table walkers; 0 means unbounded (the Fig 1 "infinite"). */
    std::uint32_t ptws = 16;
    Cycles walk_latency = 500;
    std::uint32_t pw_queue_entries = 48;

    /** Enable PEC logic (Barre). */
    bool barre = false;
    /** Coalescing-aware PTW scheduling (§V-C; F-Barre). */
    bool coal_aware_sched = false;
    Cycles pec_calc_latency = 4;
    std::uint32_t pec_buffer_entries = 5;
    /** Merge width assumed by the scheduler's coalescibility test. */
    std::uint32_t merge_width = 1;

    /** Optional IOMMU TLB (§VII-J). */
    bool tlb_enabled = false;
    std::uint32_t tlb_entries = 2048;
    std::uint32_t tlb_ways = 16;
    Cycles tlb_latency = 200;

    /**
     * Speculative multicast (§IV-B): after a coalesced walk, push
     * *every* group member's calculated translation to its chiplet,
     * solicited or not. The paper tried this and found it loses to
     * pending-only coverage because of the IOMMU's outbound bandwidth;
     * kept here as an ablation.
     */
    bool multicast = false;

    /**
     * Timed walks: instead of the flat walk_latency, walk the four
     * radix levels through a page-walk cache; each PWC miss costs
     * mem_latency_per_level (an ablation of the paper's 500-cycle
     * fixed-walk configuration).
     */
    bool timed_walks = false;
    Cycles mem_latency_per_level = 125;
    Cycles pwc_hit_latency = 2;
    std::uint32_t pwc_entries = 64;
    std::uint32_t pwc_ways = 8;

    /**
     * Per-tenant fair PW-queue scheduling: dispatch the queued request
     * whose process was least recently served a walker (FIFO within a
     * process and among never-served processes) instead of strict
     * FIFO, so one thrashing tenant cannot monopolize the walkers.
     * Composes with coal_aware_sched (coalescible requests are still
     * deferred). Off (FIFO) by default.
     */
    bool fair_pw_sched = false;

    /** Demand-paging fault service time (driver + copy-in; §VI). */
    Cycles fault_latency = 20000;

    /** Packet sizes for PCIe serialization. */
    std::uint32_t ats_request_bytes = 16;
    std::uint32_t ats_response_bytes = 16;
    /** Response carrying coal info + the 118-bit PEC entry (§V-A3). */
    std::uint32_t ats_response_coal_bytes = 32;

    bool operator==(const IommuParams &) const = default;
};

/** What an ATS response delivers back to the requesting chiplet. */
struct AtsResponse
{
    ProcessId pid = 0;
    Vpn vpn = invalid_vpn;
    Pfn pfn = invalid_pfn;
    CoalInfo coal{};
    /** PEC entry piggybacked when the page is coalesced. */
    bool has_pec = false;
    PecEntry pec{};
    /** True if this PFN was calculated (no walk) rather than walked. */
    bool calculated = false;
};

// domain-owner:host — all queue/walker/TLB state mutates on the host
// side of the PCIe link; sendAts() is the chiplet-side entry and only
// injects into the upstream wire (everything else runs on delivery).
class Iommu : public SimObject, public DomainOwned
{
  public:
    using ResponseHandler = InlineFn<void(const AtsResponse &)>;

    Iommu(EventQueue &eq, std::string name, const IommuParams &params,
          Pcie &pcie, const MemoryMap &map);

    /** Bind the IOMMU and its internal TLB/PWC to the host domain. */
    void bindDomainTree(DomainGuard *guard);

    /** Register a process's page table (driver setup). */
    void attachPageTable(PageTable &pt);

    /**
     * Process teardown (multi-tenant churn): forget the page table,
     * drop the process's PEC entries and flush its IOMMU-TLB/PWC
     * state. The caller must guarantee no translation for @p pid is
     * still queued or walking — asserted here.
     */
    void detachProcess(ProcessId pid);

    std::uint64_t processDetaches() const { return detaches_.value(); }

    /** The optional IOMMU TLB (null unless tlb_enabled); audits. */
    const Tlb *iommuTlb() const { return tlb_.get(); }

    /** PEC buffer, populated by the driver at allocation time. */
    PecBuffer &pecBuffer() { return pec_buffer_; }

    /** Observe the VPN of every arriving request (Fig 5 gap study). */
    using VpnProbe = InlineFn<void(Vpn)>;
    void setVpnProbe(VpnProbe probe) { vpn_probe_ = std::move(probe); }

    /**
     * Sink for unsolicited (multicast) translations pushed to a
     * chiplet; wired by the system when IommuParams::multicast is on.
     */
    using FillSink = InlineFn<void(ChipletId, const AtsResponse &)>;
    void setFillSink(FillSink sink) { fill_sink_ = std::move(sink); }

    std::uint64_t multicastPushes() const { return multicasts_.value(); }
    std::uint64_t pwcHits() const { return pwc_hits_.value(); }
    std::uint64_t pwcMisses() const { return pwc_misses_.value(); }

    /**
     * Demand-paging hook: called on a walk that finds no PTE; maps the
     * faulting page (and, under Barre, its group). The walk retries
     * after fault_latency.
     */
    using FaultHandler = InlineFn<void(ProcessId, Vpn)>;
    void setFaultHandler(FaultHandler h) { fault_handler_ = std::move(h); }

    /**
     * Entry point for a chiplet's ATS request. Models the full PCIe +
     * IOMMU + PCIe round trip; @p on_response fires at the tick the
     * response lands back at the chiplet.
     */
    void sendAts(ProcessId pid, Vpn vpn, ChipletId src,
                 ResponseHandler on_response);

    /// @name Statistics (Fig 16 series)
    /// @{
    void
    regStats(StatRegistry &stats) const
    {
        stats.add(name() + ".ats_requests", ats_requests_);
        stats.add(name() + ".walks", walks_);
        stats.add(name() + ".pec_calculated", coalesced_);
        stats.add(name() + ".tlb_hits", tlb_hits_);
        stats.add(name() + ".page_faults", page_faults_);
        stats.add(name() + ".sched_deferrals", deferrals_);
        stats.addMean(name() + ".avg_processing_cycles", processing_time_);
        stats.addMean(name() + ".avg_pw_queue_depth", queue_depth_);
    }
    const Accumulator &processingTime() const { return processing_time_; }
    /// @}

  private:
    struct Request
    {
        ProcessId pid;
        Vpn vpn;
        ChipletId src;
        Tick arrival;
        ResponseHandler respond;
    };

    void enqueue(Request req);
    void tryDispatch();
    bool coalescibleWithInFlight(const Request &req) const;
    void startWalk(Request req);
    void completeWalk(Request req);
    /** Consumes req.respond; the request's ids stay readable. */
    void respondTo(Request &req, AtsResponse resp, Cycles extra);
    const PageTable *tableFor(ProcessId pid) const;
    /** Walk latency for (pid, vpn) under the configured walk model. */
    Cycles walkLatency(ProcessId pid, Vpn vpn);
    void multicastGroup(const Request &req, const AtsResponse &resp,
                        const PecEntry &entry);

    IommuParams params_;
    Pcie &pcie_;
    const MemoryMap *memory_map_;
    FlatMap<ProcessId, PageTable *> page_tables_;
    // domain-owner:host — the walkers' copy; driver-filled at setup
    // and only consulted from the IOMMU's own context.
    PecBuffer pec_buffer_;
    std::unique_ptr<Tlb> tlb_;
    /** Page-walk cache over upper-level radix prefixes (timed walks). */
    std::unique_ptr<Tlb> pwc_;
    FillSink fill_sink_;

    /** Bounded PW-queue plus the unbounded PCIe-side overflow buffer. */
    std::deque<Request> pw_queue_;
    std::deque<Request> overflow_;
    /** VPNs currently being walked (for scheduling + PEC timing). */
    std::vector<std::pair<ProcessId, Vpn>> in_flight_;
    std::uint32_t busy_ptws_ = 0;

    /** Fair scheduling: per-process last-dispatch stamps. */
    std::map<ProcessId, std::uint64_t> last_served_;
    std::uint64_t serve_stamp_ = 0;

    VpnProbe vpn_probe_;
    Counter ats_requests_;
    Counter walks_;
    Counter coalesced_;
    Counter tlb_hits_;
    Counter deferrals_;
    Counter multicasts_;
    Counter pwc_hits_;
    Counter pwc_misses_;
    Counter page_faults_;
    Counter detaches_;
    FaultHandler fault_handler_;
    Accumulator processing_time_;
    Accumulator queue_depth_;
};

} // namespace barre

