/**
 * @file
 * The page-walk stage, one copy for the host IOMMU and each per-chiplet
 * GMMU of the MGvm platform.
 *
 * The stage owns a bounded PW-queue plus the unbounded overflow buffer
 * behind it and N page-table walkers. Dispatch is FIFO, the per-tenant
 * fair pick, or the coalescing-aware rotation of §V-C. When a walk
 * returns a coalesced PTE under Barre, the walker's PEC logic scans the
 * queue and serves every pending member of the group with a
 * *calculated* PFN, skipping its walk (§IV-F, §VII-F).
 *
 * What differs between the owners comes in as hooks (WalkHooks). The
 * owners count their stats there; the stage counts only what they
 * cannot see (deferrals, queue depth) for them to register.
 */

#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/pec.hh"
#include "mem/memory_map.hh"
#include "mem/page_table.hh"
#include "sim/domain_guard.hh"
#include "sim/flat_map.hh"
#include "sim/inline_fn.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace barre
{

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

/** A translation request queued for, or holding, a walker. */
struct WalkRequest
{
    using ResponseHandler = InlineFn<void(const AtsResponse &)>;

    ProcessId pid;
    Vpn vpn;
    ChipletId src; ///< the requesting chiplet
    Tick arrival;
    ResponseHandler respond;
};

/** As IommuParams; ptws 0 means unbounded walkers and queue. */
struct WalkStageParams
{
    std::uint32_t ptws = 16;
    std::uint32_t queue_entries = 48;
    bool barre = false;
    bool coal_aware_sched = false;
    bool fair_pw_sched = false;
    std::uint32_t merge_width = 1;
    Cycles pec_calc_latency = 4;
};

/** The owner's steps; only start and respond are required. */
struct WalkHooks
{
    /** A walker took the request: count the walk, return its latency. */
    InlineFn<Cycles(const WalkRequest &)> start;
    /** The walk found no PTE (a page fault without it). */
    InlineFn<void(WalkRequest &&)> missing;
    /** Deliver (consuming respond): now if extra is 0, else after it. */
    InlineFn<void(WalkRequest &, AtsResponse, Cycles extra)> respond;
    /** A walked or calculated translation, before its delivery. */
    InlineFn<void(const AtsResponse &)> fill;
    /** The PEC scan after a coalesced walk is done. */
    InlineFn<void(const WalkRequest &, const AtsResponse &)> coalesced;
};

// domain-owner:shared — bound per instance: the IOMMU's stage to the
// host tag, each GMMU's stage to its chiplet's tag.
class WalkStage : public SimObject, public DomainOwned
{
  public:
    using PageTables = FlatMap<ProcessId, PageTable *>;

    /** @p tables and @p pec are the owner's, read only here. */
    WalkStage(EventQueue &eq, std::string name,
              const WalkStageParams &params, const PageTables &tables,
              const PecBuffer &pec, const MemoryMap &map, WalkHooks hooks);

    /** Queue @p req (or overflow it) and dispatch what can start. */
    void enqueue(WalkRequest req);

    /**
     * Serve @p req from the page table: respond, then for a coalesced
     * PTE the PEC scan of the queue. A walker runs this when its walk
     * returns; an owner may re-run it outside any walker (a fault).
     */
    void finish(WalkRequest req);

    /** The response for (pfn, coal): under Barre with its PEC entry. */
    AtsResponse responseFor(ProcessId pid, Vpn vpn, Pfn pfn,
                            CoalInfo coal) const;

    /**
     * Group member @p vpn 's response from the coalesced walk
     * @p walked and its PEC result @p calc (pec::calcPending).
     */
    AtsResponse calculated(const AtsResponse &walked, Vpn vpn,
                           const PecCalc &calc) const;

    /** The page table of @p pid; panics if none is attached. */
    const PageTable &tableFor(ProcessId pid) const;

    /**
     * Teardown: assert nothing of @p pid is queued or walking, and
     * forget its fair-scheduling stamp.
     */
    void detach(ProcessId pid);

    const Counter &deferrals() const { return deferrals_; }
    const Accumulator &queueDepth() const { return queue_depth_; }

  private:
    void dispatch();
    bool coalescibleWithInFlight(const WalkRequest &req) const;
    void startWalk(WalkRequest req);
    /** Move up to @p n overflowed requests into the bounded queue. */
    void promote(std::size_t n);

    WalkStageParams params_;
    const PageTables &tables_;
    const PecBuffer &pec_;
    const MemoryMap &map_;
    WalkHooks hooks_;

    std::deque<WalkRequest> queue_;
    std::deque<WalkRequest> overflow_;
    /** What the busy walkers are walking, one entry each. */
    std::vector<std::pair<ProcessId, Vpn>> in_flight_;

    /** Fair scheduling: per-process last-dispatch stamps. */
    std::map<ProcessId, std::uint64_t> last_served_;
    std::uint64_t serve_stamp_ = 0;

    Counter deferrals_;
    Accumulator queue_depth_;
};

} // namespace barre
