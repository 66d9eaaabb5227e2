/**
 * @file
 * The package-shared L2 TLB hypothetical (Fig 5/6) as a host-owned
 * service reached over per-chiplet request/response links.
 *
 * The shared block is one L2TlbStage (gpu/l2_tlb_stage.hh: TLB, MSHR
 * file, parked requests, per-requester counters) owned by the host
 * domain, plus the links. Chiplets reach it only through messages:
 *
 *   chiplet --(req link, lookup request + continuation)--> shared stage
 *   shared stage: lookup latency, then hit -> respond, or park / merge
 *                 / allocate; a primary miss launches the translation
 *   ATS response lands at the chiplet (PCIe downstream), which
 *   forwards the fill back over its req link; the stage installs it,
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

#include "gpu/l2_tlb_stage.hh"
#include "gpu/translation_service.hh"
#include "noc/link.hh"
#include "sim/domain_guard.hh"
#include "sim/sim_object.hh"

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

// domain-owner:host — the shared stage (TLB, MSHR file, parked queue,
// per-requester counters) mutates in the host domain; chiplets reach it
// only through the per-chiplet request/response links.
class SharedTlbService : public SimObject
{
  public:
    /** Continuation run at the requesting chiplet with the fill. */
    using FillCont = L2TlbStage::Cont;

    SharedTlbService(EventQueue &eq, std::string name,
                     const SharedTlbParams &params,
                     const TlbParams &tlb_params, std::uint32_t chiplets,
                     Cycles retry_interval);

    /** The fallback translation path (ATS / GMMU); wired by System. */
    void
    setService(TranslationService *svc)
    {
        service_ = svc;
        l2_.setService(svc);
    }

    /** The host-owned stage: stats, validator, harvest/test access. */
    L2TlbStage &l2() { return l2_; }
    Tlb &tlb() { return l2_.tlb(); }

    void
    bindDomains(DomainGuard *guard)
    {
        l2_.bindDomains(guard, kHostTag, name());
    }

    /**
     * Chiplet-side entry (runs under chiplet @p src 's tag): request a
     * translation for (pid, vpn); @p cont fires back at the chiplet
     * with the entry once the shared block responds.
     */
    void lookupFrom(ChipletId src, ProcessId pid, Vpn vpn, FillCont cont);

    /**
     * Chiplet-side entry: an unsolicited fill landed at chiplet @p src;
     * forward it into the shared stage.
     */
    void unsolicitedFillFrom(ChipletId src, const AtsResponse &resp);

  private:
    /** The stage's launch hook: translate a primary miss. */
    void launch(ChipletId src, ProcessId pid, Vpn vpn);
    /** Ship @p te to chiplet @p dst 's continuation. */
    void respond(ChipletId dst, const TlbEntry &te, FillCont cont);

    SharedTlbParams params_;
    TranslationService *service_ = nullptr;
    /** Request wires, one per chiplet (sender-owned, deliver at host). */
    std::vector<std::unique_ptr<Link>> req_links_;
    /** Response wires, host-owned, deliver at the target chiplet. */
    std::vector<std::unique_ptr<Link>> resp_links_;
    L2TlbStage l2_;
};

} // namespace barre
