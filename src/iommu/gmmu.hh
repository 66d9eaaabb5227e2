/**
 * @file
 * Distributed per-chiplet GMMUs in the style of MGvm (MICRO'22), the
 * GMMU-integrated platform of paper §VII-F.
 *
 * Each chiplet has a private GMMU (walker pool + queue). The page table
 * is distributed: a VPN's leaf lives on its *home* chiplet, which MGvm's
 * locality-extended placement makes the chiplet owning the data page, so
 * most walks are local. A walk requested by a non-home chiplet travels
 * the interconnect to the home GMMU and back (a *remote walk* — the red
 * line of Fig 21).
 *
 * With Barre Chord integrated, each GMMU owns PEC logic and scans its
 * queue after a coalesced walk, removing both local and remote walks.
 * Each GMMU is a FIFO walk stage (iommu/walk_stage.hh).
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/pec.hh"
#include "iommu/walk_stage.hh"
#include "mem/memory_map.hh"
#include "mem/page_table.hh"
#include "noc/interconnect.hh"
#include "sim/domain.hh"
#include "sim/domain_guard.hh"
#include "sim/flat_map.hh"
#include "sim/inline_fn.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace barre
{

struct GmmuParams
{
    std::uint32_t ptws_per_chiplet = 8;
    Cycles walk_latency = 500;
    std::uint32_t queue_entries = 24;
    bool barre = false;
    Cycles pec_calc_latency = 4;
    std::uint32_t pec_buffer_entries = 5;
    std::uint32_t request_bytes = 16;
    std::uint32_t response_bytes = 32;

    bool operator==(const GmmuParams &) const = default;
};

// domain-owner:shared — one service dispatching per-chiplet walk
// stages; each stage is owned by its home chiplet's tag and bound
// individually in bindDomains().
class GmmuSystem : public SimObject
{
  public:
    using ResponseHandler = WalkRequest::ResponseHandler;
    /** Maps a VPN to the chiplet holding its page-table leaf. */
    using HomeFn = InlineFn<ChipletId(ProcessId, Vpn)>;

    GmmuSystem(EventQueue &eq, std::string name, const GmmuParams &params,
               std::uint32_t chiplets, Interconnect &noc,
               const MemoryMap &map, HomeFn home_of);

    void attachPageTable(PageTable &pt);
    PecBuffer &pecBuffer() { return pec_buffer_; }

    /** Bind each per-chiplet walk stage to its home chiplet's tag. */
    void
    bindDomains(DomainGuard *guard)
    {
        // Driver-filled at setup, read-only during the run, so any
        // home GMMU may consult it from its own context.
        pec_buffer_.bindDomain(guard, kAnyDomain, name() + ".pec");
        for (std::uint32_t c = 0; c < stages_.size(); ++c) {
            stages_[c]->bindDomain(guard,
                                   chipletTag(static_cast<ChipletId>(c)),
                                   stages_[c]->name());
        }
    }

    /**
     * Translate (pid, vpn) on behalf of @p requester; @p on_response
     * fires when the response is back at the requester.
     */
    void translate(ProcessId pid, Vpn vpn, ChipletId requester,
                   ResponseHandler on_response);

    void
    regStats(StatRegistry &stats)
    {
        // Walks actually performed; coalesced requests skip theirs.
        stats.add(name() + ".local_walks", local_walks_);
        stats.add(name() + ".remote_walks", remote_walks_);
        stats.add(name() + ".pec_calculated", coalesced_);
    }

  private:
    /** The walk stage's steps that are home GMMU @p home 's own. */
    WalkHooks hooks(ChipletId home);

    GmmuParams params_;
    Interconnect &noc_;
    HomeFn home_of_;
    FlatMap<ProcessId, PageTable *> page_tables_;
    PecBuffer pec_buffer_;
    /** One per chiplet, indexed by home chiplet. */
    std::vector<std::unique_ptr<WalkStage>> stages_;

    // Bumped from whichever chiplet context serves a walk, so these
    // shard per tag in partitioned mode.
    TagCounter local_walks_;
    TagCounter remote_walks_;
    TagCounter coalesced_;
};

} // namespace barre

