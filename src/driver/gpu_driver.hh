/**
 * @file
 * The GPU driver's memory-allocation path (paper §IV-C/G).
 *
 * gpuMalloc() assigns a contiguous VPN range, computes the stripe layout
 * per the configured mapping policy, and - when Barre is enabled -
 * enforces the coalescing-group mapping: every member of a group is
 * placed on the *same local PFN* of its chiplet (found by intersecting
 * the chiplets' free-frame sets, cf. amdgpu_hmm_range_get_pages()). With
 * contiguity-aware expansion, up to merge_limit adjacent groups are
 * placed on commonly-free *runs* of frames and merged (§V-B). When no
 * commonly-free frame exists the driver falls back to conventional
 * per-page allocation for that group.
 *
 * The driver is functional (allocation precedes kernel launch, as the
 * paper assumes); all timing lives in the simulated datapath.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/pec.hh"
#include "driver/mapping_policy.hh"
#include "mem/frame_allocator.hh"
#include "mem/memory_map.hh"
#include "mem/page_table.hh"
#include "sim/domain_guard.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"

namespace barre
{

struct DriverParams
{
    MappingPolicyKind policy = MappingPolicyKind::lasp;
    /** Enforce coalescing-group mapping (Barre / F-Barre). */
    bool barre = true;
    /** Max merged coalescing groups (1 = plain; Table II default 2). */
    std::uint32_t merge_limit = 1;
    /** Fraction of frames pre-claimed to model aged memory. */
    double fragmentation = 0.0;
    std::uint64_t frag_seed = 7;
    /**
     * On-demand paging (§VI): gpuMalloc only reserves the VPN range;
     * pages are mapped at first touch by faultIn(), in whole
     * coalescing-group units when Barre is on.
     */
    bool demand_paging = false;

    bool operator==(const DriverParams &) const = default;
};

/** Handle returned by gpuMalloc. */
struct DataAlloc
{
    ProcessId pid = 0;
    Vpn start_vpn = 0;
    std::uint64_t pages = 0;
    /** Stripe layout (also the registered PEC entry when coalesced). */
    PecEntry layout;
    /** Pages that landed in a (possibly merged) coalescing group. */
    std::uint64_t coalesced_pages = 0;
};

// domain-owner:host — the driver runs on the CPU; GPU-side actors
// reach it only through the IOMMU fault path (Pcie messages).
class GpuDriver : public DomainOwned
{
  public:
    GpuDriver(const MemoryMap &map, const DriverParams &params);

    /**
     * Bind the driver and everything it owns (page tables, present and
     * future) to the host domain under @p guard.
     */
    void bindDomainTree(DomainGuard *guard);

    const MemoryMap &memoryMap() const { return map_; }
    const DriverParams &params() const { return params_; }

    /** @p pid 's page table, created on first use. */
    PageTable &pageTable(ProcessId pid);
    /**
     * @p pid 's existing page table. Never inserts, so chiplet-side
     * readers may call it while the host runs.
     */
    const PageTable &pageTable(ProcessId pid) const;
    FrameAllocator &allocator(ChipletId chiplet);

    /** Allocate and map a buffer of @p pages pages. */
    DataAlloc gpuMalloc(ProcessId pid, std::uint64_t pages,
                        const DataTraits &traits = {});

    /** PEC entries registered for coalesced buffers (IOMMU-visible). */
    const std::vector<PecEntry> &pecEntries() const { return pec_entries_; }

    struct MigrationResult
    {
        Pfn old_pfn = invalid_pfn;
        Pfn new_pfn = invalid_pfn;
        /**
         * VPNs whose cached translations/coalescing bits became stale
         * (the migrated page plus its former group members); the caller
         * must shoot these down from TLBs and filters.
         */
        std::vector<Vpn> stale_vpns;
    };

    /**
     * Migrate (pid, vpn) to @p dest, de-coalescing it from its group
     * (paper §VI Support for migration). @return nullopt if the page is
     * unmapped, already on @p dest, or @p dest is out of frames.
     */
    std::optional<MigrationResult> migratePage(ProcessId pid, Vpn vpn,
                                               ChipletId dest);

    /**
     * Demand-paging fault handler (§VI): map the page containing
     * (pid, vpn) - and, under Barre, its whole coalescing group, since
     * group pages are accessed at similar times. @return the VPNs
     * mapped by this fault (empty if the page was already mapped or
     * the VPN was never reserved).
     */
    std::vector<Vpn> faultIn(ProcessId pid, Vpn vpn);

    /**
     * Full process teardown (multi-tenant churn): unmap every page of
     * every buffer @p pid allocated, release the backing frames to
     * their chiplets' allocators, and drop the page table, PEC entries
     * and VPN bump state. The caller is responsible for the GPU-side
     * consequences (ASID shootdowns, IOMMU detach). @return the number
     * of pages unmapped.
     */
    std::uint64_t processExit(ProcessId pid);

    /** Live (allocated, not yet exited) processes. */
    std::uint64_t liveProcesses() const { return page_tables_.size(); }

    void
    regStats(StatRegistry &stats) const
    {
        stats.add("driver.mapped_pages", mapped_pages_);
        stats.add("driver.process_exits", exits_);
        stats.add("driver.coalesced_pages", coalesced_pages_);
        stats.add("driver.merged_pages", merged_pages_);
        stats.add("driver.fallback_pages", fallback_pages_);
        stats.add("driver.demand_faults", faults_);
    }

    std::uint64_t totalMappedPages() const { return mapped_pages_.value(); }
    std::uint64_t coalescedPages() const { return coalesced_pages_.value(); }
    std::uint64_t fallbackPages() const { return fallback_pages_.value(); }
    std::uint64_t migrations() const { return migrations_.value(); }

  private:
    struct GroupPlan
    {
        /** (order position k, vpn) members present in this group. */
        std::vector<std::pair<std::uint32_t, Vpn>> members;
        std::uint32_t base_offset = 0;   ///< first in-stripe offset
        std::uint32_t width = 1;         ///< merged width m
    };

    void mapGroupCoalesced(PageTable &pt, const PecEntry &layout,
                           const GroupPlan &plan);
    void mapPageIndividually(PageTable &pt, const PecEntry &layout,
                             Vpn vpn);
    /** Merge width usable for @p layout under current constraints. */
    std::uint32_t effectiveWidth(const PecEntry &layout) const;
    /** Map every group of @p layout (the eager-allocation body). */
    void mapAllGroups(PageTable &pt, const PecEntry &layout);
    /** Map just the group containing @p vpn (demand-paging fault). */
    void mapGroupContaining(PageTable &pt, const PecEntry &layout,
                            Vpn vpn);
    /** Build and map the (round, offset-block) group plan. */
    void mapBlock(PageTable &pt, const PecEntry &layout,
                  std::uint64_t round, std::uint32_t block_offset,
                  std::uint32_t width);

    const PecEntry *findPecEntry(ProcessId pid, Vpn vpn) const;
    /** @p pid 's existing page table, for mid-run updates. */
    PageTable &existingTable(ProcessId pid);

    const MemoryMap &map_;
    DriverParams params_;
    std::vector<std::unique_ptr<FrameAllocator>> allocators_;
    std::unordered_map<ProcessId, std::unique_ptr<PageTable>> page_tables_;
    std::unordered_map<ProcessId, Vpn> vpn_bump_;
    std::vector<PecEntry> pec_entries_;
    /** Every allocation's layout (demand-fault lookup). */
    std::vector<PecEntry> all_layouts_;

    Counter exits_;
    Counter mapped_pages_;
    Counter coalesced_pages_;
    Counter merged_pages_;
    Counter fallback_pages_;
    Counter migrations_;
    Counter faults_;
};

} // namespace barre

