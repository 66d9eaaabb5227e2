/**
 * @file
 * F-Barre's intra-MCM translation service (paper §V-A).
 *
 * On an L2 TLB miss the chiplet tries, in order:
 *  1. *Local coalesced calculation*: the LCF says whether any coalescing
 *     VPN of the missing page sits in the local L2 TLB; if so the PEC
 *     logic calculates the PFN from that entry - no traffic at all.
 *  2. *Peer calculation*: the per-peer RCFs predict which chiplet's TLB
 *     can translate the page; a small probe crosses the interconnect,
 *     the peer runs the same LCF -> TLB -> PEC-calculate sequence and
 *     replies (Fig 11/12). A false prediction NACKs back.
 *  3. Fallback: the conventional path (ATS to the IOMMU, or the GMMU).
 *
 * Filter maintenance (§V-A2): every chiplet mirrors its L2 TLB inserts/
 * evicts into its LCF (exact VPN) and broadcasts best-effort 43-bit
 * updates so peers add/remove the exact VPN *and all coalescing VPNs*
 * in their RCF for this chiplet.
 */

#pragma once

#include <memory>
#include <vector>

#include "core/filter_engine.hh"
#include "core/pec.hh"
#include "gpu/translation_service.hh"
#include "noc/interconnect.hh"
#include "sim/domain.hh"
#include "sim/domain_guard.hh"
#include "sim/sim_object.hh"
#include "sim/slot_table.hh"
#include "sim/stats.hh"

namespace barre
{

struct FBarreParams
{
    CuckooFilterParams filter{};
    /** Enable step 2 (off to isolate PTW scheduling, Fig 18). */
    bool peer_sharing = true;
    /** Fig 19 oracle: share at fixed latency without NoC resources. */
    bool oracle_sharing = false;
    Cycles oracle_latency = 32;
    Cycles lcf_latency = 1;
    Cycles tlb_peek_latency = 10;
    Cycles calc_latency = 2;
    std::uint32_t probe_bytes = 8;
    std::uint32_t reply_bytes = 16;
    std::uint32_t nack_bytes = 4;
    std::uint32_t filter_update_bytes = 6; ///< 43-bit message, §V-A2
    /** Candidate window width (the configured merge limit). */
    std::uint32_t merge_width = 1;
    std::uint32_t pec_buffer_entries = 5;

    bool operator==(const FBarreParams &) const = default;
};

// domain-owner:shared — the service object is entered from every
// chiplet's context; what it owns per chiplet (engines_, pec_buffers_)
// is bound to that chiplet's tag in bindDomains().
class FBarreService : public SimObject,
                      public TranslationService,
                      public DomainOwned
{
  public:
    FBarreService(EventQueue &eq, std::string name,
                  const FBarreParams &params, std::uint32_t chiplets,
                  Interconnect &noc, const MemoryMap &map,
                  TranslationService &fallback);

    /** Wire each chiplet's L2 TLB for peeking. */
    void attachL2Tlb(ChipletId chiplet, Tlb *tlb);

    /**
     * Package-shared L2 TLB hypothetical: the per-chiplet TLBs the
     * intra-MCM layer keys off collapse into one host-owned structure,
     * so steps 1–2 are moot (a miss there already missed for every
     * chiplet). The layer disables itself; every miss takes the
     * fallback path (IOMMU-side PEC coalescing still applies).
     */
    void setSharedL2Bypass() { shared_bypass_ = true; }

    /** Bind each chiplet's filter engine + PEC buffer to its tag. */
    void
    bindDomains(DomainGuard *guard)
    {
        bindDomain(guard, kAnyDomain, name());
        for (std::uint32_t c = 0; c < chiplets_; ++c) {
            SeqTag tag = chipletTag(static_cast<ChipletId>(c));
            engines_[c]->bindDomain(guard, tag,
                                    name() + ".lcf" + std::to_string(c));
            pec_buffers_[c]->bindDomain(
                guard, tag, name() + ".pec" + std::to_string(c));
        }
    }

    void translate(ProcessId pid, Vpn vpn, ChipletId src,
                   Iommu::ResponseHandler done) override;
    void onL2Insert(ChipletId chiplet, const TlbEntry &entry) override;
    void onL2Evict(ChipletId chiplet, const TlbEntry &entry) override;
    void onResponse(ChipletId chiplet, const AtsResponse &resp);
    void onShootdown() override;

    FilterEngine &engine(ChipletId c) { return *engines_[c]; }
    PecBuffer &pecBuffer(ChipletId c) { return *pec_buffers_[c]; }

    /**
     * Deep audit (sim/invariant.hh) of L2-TLB/LCF coherence on
     * @p chiplet: every valid L2 TLB entry's VPN must be visible in the
     * chiplet's local coalescing filter — the property step 1 of the
     * translation flow relies on. Skipped once the LCF has recorded a
     * lossy insert (the filter is best-effort by design from then on).
     * Panics (throws) on violation. O(L2 entries).
     */
    void auditFilterCoherence(ChipletId chiplet) const;

    /** auditFilterCoherence over every chiplet with an attached L2. */
    void auditFilterCoherence() const;

    /// @name Statistics (Fig 16c/17/18/19 series)
    /// @{
    void
    regStats(StatRegistry &stats)
    {
        stats.add(name() + ".local_calc_hits", local_hits_);
        stats.add(name() + ".remote_probes", remote_probes_);
        stats.add(name() + ".remote_hits", remote_hits_);
        stats.add(name() + ".fallbacks", fallbacks_);
        stats.add(name() + ".filter_updates", filter_updates_);
        stats.add(name() + ".lcf_positives", lcf_positives_);
        stats.add(name() + ".lcf_true_positives", lcf_true_);
    }
    /// @}

    /** Total filter + PEC buffer bits per chiplet (§VII-K). */
    std::uint64_t perChipletStorageBits() const;

  private:
    static constexpr std::uint64_t kAuditPeriod = 256;

    /**
     * VPNs that could belong to the same coalescing group as @p vpn per
     * the buffer layout (probe set; membership is verified against the
     * found TLB entry's coalescing bits).
     */
    std::vector<Vpn> candidateVpns(const PecEntry &entry, Vpn vpn) const;

    /**
     * The LCF -> TLB -> calculate sequence on @p chiplet.
     * @param[out] latency cycles the sequence consumed
     * @return response if the chiplet could translate (pid, vpn)
     */
    std::optional<AtsResponse> tryCalcAt(ChipletId chiplet, ProcessId pid,
                                         Vpn vpn, bool allow_exact,
                                         Cycles &latency);

    /**
     * Ship one batched filter-update message (the 43-bit updates for
     * all of @p vpns packed into one flit train) from @p from to every
     * peer, in chiplet order; each is applied at its delivery.
     */
    void sendFilterUpdates(ChipletId from, bool add, ProcessId pid,
                           std::vector<Vpn> vpns);

    /** A requester's translation waiting in its own domain: the
     *  completion and, for a local calculation, its response. */
    struct Waiting
    {
        Iommu::ResponseHandler done;
        AtsResponse resp{};
    };

    FBarreParams params_;
    bool shared_bypass_ = false;
    std::uint32_t chiplets_;
    Interconnect &noc_;
    const MemoryMap &map_;
    TranslationService &fallback_;
    std::vector<std::unique_ptr<FilterEngine>> engines_;
    std::vector<std::unique_ptr<PecBuffer>> pec_buffers_;
    std::vector<Tlb *> l2_tlbs_;
    /** Per requesting chiplet; touched only in that chiplet's domain. */
    std::vector<SlotTable<Waiting>> waiting_;

    // One service instance is bumped from every chiplet's sequencing
    // context, so these shard per tag (TagCounter degenerates to a
    // plain counter when unsharded).
    TagCounter local_hits_;
    TagCounter lcf_positives_;
    TagCounter lcf_true_;
    TagCounter remote_probes_;
    TagCounter remote_hits_;
    TagCounter fallbacks_;
    TagCounter filter_updates_;
    std::uint64_t audit_tick_ = 0; ///< BARRE_AUDIT_EVERY site counter
    std::uint64_t rcf_audit_tick_ = 0; ///< RCF-membership audit counter
};

} // namespace barre

