/**
 * @file
 * The package-shared L2 TLB hypothetical (Fig 5/6) as a host-owned
 * service reached over per-chiplet request/response links.
 *
 * The original model let every chiplet call into one shared Tlb/Mshr
 * pair synchronously — free cross-chiplet communication that also kept
 * the configuration off the partitionable set. Here the shared block
 * owns all of its state (TLB, MSHR file, the parked-request queue and
 * per-requester statistics) in the host domain, and chiplets talk to
 * it exclusively through messages:
 *
 *   chiplet --(req link, lookup request + continuation)--> shared TLB
 *   shared TLB: charge lookup latency, hit? -> respond
 *               miss? -> MSHR allocate (park/merge/primary),
 *                        primary launches the translation service
 *   ATS response lands at the chiplet (PCIe downstream), which
 *   forwards the fill back over its req link; the shared TLB inserts,
 *   completes the MSHR and responds to every waiter over that
 *   chiplet's response link. The continuation (L1 fill + data access)
 *   executes at the requesting chiplet when the response arrives.
 *
 * The links are wide (the hypothetical grants the block aggregate
 * bandwidth) and short — shorter than the inter-chiplet NoC hop, which
 * makes this config the tightest lookahead bound a partitioned run
 * can have (DomainScheduler epochs of 1 + shared_tlb.latency).
 */

#pragma once

#include <memory>
#include <vector>

#include "gpu/translation_service.hh"
#include "noc/link.hh"
#include "sim/domain_guard.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"
#include "tlb/mshr.hh"
#include "tlb/tlb.hh"

namespace barre
{

struct SharedTlbParams
{
    /** One-way chiplet <-> shared-block hop (interposer, not NoC). */
    Cycles latency = 8;
    /** Aggregate bandwidth of the shared block's ports. */
    double bytes_per_cycle = 768.0;
    std::uint32_t req_bytes = 16;
    std::uint32_t resp_bytes = 32;

    bool operator==(const SharedTlbParams &) const = default;
};

// domain-owner:host — the shared TLB, MSHR file, parked queue and
// per-requester counters all mutate in the host domain; chiplets reach
// them only through the per-chiplet request/response links.
class SharedTlbService : public SimObject, public DomainOwned
{
  public:
    /** Continuation run at the requesting chiplet with the fill. */
    using FillCont = InlineFn<void(const TlbEntry &)>;

    SharedTlbService(EventQueue &eq, std::string name,
                     const SharedTlbParams &params,
                     const TlbParams &tlb_params, std::uint32_t chiplets,
                     Cycles retry_interval);

    /** The fallback translation path (ATS / GMMU); wired by System. */
    void setService(TranslationService *svc) { service_ = svc; }

    /**
     * Debug hook fired for every translation response before it fills
     * the shared TLB (mirrors Chiplet::setValidator; runs host-side,
     * where the authoritative page table lives).
     */
    using Validator = InlineFn<void(ProcessId, Vpn, Pfn, bool)>;
    void setValidator(Validator v) { validator_ = std::move(v); }

    /** Harvest/test access to the shared structures. */
    Tlb &tlb() { return *tlb_; }
    Mshr<TlbEntry> &mshr() { return *mshr_; }

    void
    bindDomains(DomainGuard *guard)
    {
        bindDomain(guard, kHostTag, name());
        tlb_->bindDomain(guard, kHostTag, "shared.l2tlb");
        mshr_->bindDomain(guard, kHostTag, "shared.l2mshr");
    }

    /**
     * Chiplet-side entry (runs under chiplet @p src 's tag): request a
     * translation for (pid, vpn); @p cont fires back at the chiplet
     * with the entry once the shared block responds.
     */
    void lookupFrom(ChipletId src, ProcessId pid, Vpn vpn, FillCont cont);

    /**
     * Chiplet-side entry: an unsolicited (multicast) fill landed at
     * chiplet @p src; forward it into the shared block.
     */
    void unsolicitedFillFrom(ChipletId src, const AtsResponse &resp);

    /// @name Per-requesting-chiplet statistics (host-side writers)
    /// @{
    const Counter &demandMisses(ChipletId c) const { return misses_[c]; }
    const Counter &mshrRetries(ChipletId c) const { return retries_[c]; }
    /// @}

  private:
    struct Parked
    {
        ChipletId src;
        ProcessId pid;
        Vpn vpn;
        FillCont cont;
    };

    /** The lookup pipeline, after the request hop + lookup latency. */
    void serveAtHost(ChipletId src, ProcessId pid, Vpn vpn,
                     FillCont cont);
    /** Ship @p te to chiplet @p dst 's continuation. */
    void respond(ChipletId dst, const TlbEntry &te, FillCont cont);
    /** A forwarded translation response: insert, complete, unpark. */
    void completeAtHost(ChipletId src, std::uint64_t key,
                        const AtsResponse &resp);
    /** Release every parked request as one retry batch. */
    void unpark();

    SharedTlbParams params_;
    Cycles retry_interval_;
    TranslationService *service_ = nullptr;
    Validator validator_;
    std::unique_ptr<Tlb> tlb_;
    std::unique_ptr<Mshr<TlbEntry>> mshr_;
    /** Request wires, one per chiplet (sender-owned, deliver at host). */
    std::vector<std::unique_ptr<Link>> req_links_;
    /** Response wires, host-owned, deliver at the target chiplet. */
    std::vector<std::unique_ptr<Link>> resp_links_;
    std::vector<Parked> parked_;
    std::vector<Counter> misses_;
    std::vector<Counter> retries_;
};

} // namespace barre
