/**
 * @file
 * "Least" baseline (Li et al., MICRO'21): sharing- and spilling-aware
 * inter-chiplet L2 TLB design, configured as the paper does in §VII-A
 * with a 1024-entry cuckoo-filter tracker per chiplet. The tracker is
 * modeled as a per-chiplet *replica* of peer L2 TLB contents: every
 * chiplet broadcasts its L2 TLB inserts/evicts over the interconnect
 * (small tracker-update messages, like F-Barre's filter updates), and
 * a miss consults the local replica only — no synchronous peer peeks.
 *
 * On an L2 miss: if the local tracker says a peer L2 TLB holds the
 * exact VPN, probe that peer over the interconnect; the peer re-checks
 * its own TLB (the replica may be stale in flight) and either replies
 * with the entry or NACKs into the conventional ATS path. On eviction,
 * entries spill over the interconnect to the next chiplet's L2 TLB so
 * shared translations stay inside the package.
 */

#pragma once

#include <unordered_map>
#include <vector>

#include "gpu/translation_service.hh"
#include "noc/interconnect.hh"
#include "sim/domain_guard.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace barre
{

struct LeastParams
{
    bool spilling = true;
    Cycles peer_tlb_latency = 10;
    std::uint32_t probe_bytes = 8;
    std::uint32_t reply_bytes = 16;
    /** One tracker-update (insert/evict broadcast) message. */
    std::uint32_t tracker_update_bytes = 8;
    /** One spilled TLB entry in flight. */
    std::uint32_t spill_bytes = 16;

    bool operator==(const LeastParams &) const = default;
};

// domain-owner:shared — entered from every chiplet's context; all
// mutable tracker/counter state is sharded per chiplet and bound to
// that chiplet's tag in bindDomains(); peer TLBs are only reached
// through interconnect messages.
class LeastService : public SimObject,
                     public TranslationService
{
  public:
    LeastService(EventQueue &eq, std::string name, Iommu &iommu,
                 Interconnect &noc, std::uint32_t chiplets,
                 const LeastParams &params)
        : SimObject(eq, std::move(name)), iommu_(iommu), noc_(noc),
          params_(params), l2_tlbs_(chiplets, nullptr), chips_(chiplets)
    {}

    void attachL2Tlb(ChipletId c, Tlb *tlb) { l2_tlbs_[c] = tlb; }

    /**
     * Package-shared L2 TLB hypothetical: with one physical L2 there
     * is nothing to share or spill between chiplets (and the structure
     * is host-owned, unreachable synchronously). The sharing layer
     * disables itself; every miss takes the conventional ATS path.
     */
    void setSharedL2Bypass() { shared_bypass_ = true; }

    /** Bind each chiplet's tracker replica + counters to its tag. */
    void
    bindDomains(DomainGuard *guard)
    {
        for (std::size_t c = 0; c < chips_.size(); ++c) {
            chips_[c].bindDomain(guard,
                                 chipletTag(static_cast<ChipletId>(c)),
                                 "least.chip" + std::to_string(c));
        }
    }

    void
    translate(ProcessId pid, Vpn vpn, ChipletId src,
              Iommu::ResponseHandler done) override
    {
        if (shared_bypass_) {
            // May run host-side (the shared block drives misses from
            // there); touches no chiplet shard.
            iommu_.sendAts(pid, vpn, src, std::move(done));
            return;
        }
        PerChiplet &ch = chips_[src];
        ch.domainCheck("translate");
        std::uint32_t mask = 0;
        auto it = ch.presence.find(trackerKey(pid, vpn));
        if (it != ch.presence.end())
            mask = it->second;
        mask &= ~(1u << src);
        if (mask != 0) {
            // Lowest-index holder, matching the original probe order.
            auto p = static_cast<ChipletId>(__builtin_ctz(mask));
            ++ch.remote_lookups;
            noc_.send(src, p, params_.probe_bytes,
                      [this, pid, vpn, src, p,
                       done = std::move(done)]() mutable {
                          after(params_.peer_tlb_latency,
                                [this, pid, vpn, src, p,
                                 done = std::move(done)]() mutable {
                                    serveAtPeer(pid, vpn, src, p,
                                                std::move(done));
                                });
                      });
            return;
        }
        ++ch.ats_fallbacks;
        iommu_.sendAts(pid, vpn, src, std::move(done));
    }

    void
    onL2Insert(ChipletId chiplet, const TlbEntry &entry) override
    {
        if (shared_bypass_)
            return; // fills land host-side; no trackers to maintain
        chips_[chiplet].domainCheck("onL2Insert");
        broadcastPresence(chiplet, entry.pid, entry.vpn, true);
    }

    void
    onL2Evict(ChipletId chiplet, const TlbEntry &entry) override
    {
        if (shared_bypass_)
            return;
        PerChiplet &ch = chips_[chiplet];
        ch.domainCheck("onL2Evict");
        broadcastPresence(chiplet, entry.pid, entry.vpn, false);
        if (!params_.spilling || ch.in_spill)
            return;
        // Spill to the next chiplet over the interconnect; its own
        // capacity victim is dropped (no transitive spilling).
        auto target = static_cast<ChipletId>((chiplet + 1) %
                                             l2_tlbs_.size());
        if (target == chiplet)
            return; // single chiplet: nowhere to spill
        noc_.send(chiplet, target, params_.spill_bytes,
                  [this, target, te = entry]() {
                      PerChiplet &t = chips_[target];
                      t.in_spill = true;
                      l2_tlbs_[target]->insert(te);
                      t.in_spill = false;
                      ++t.spills;
                      broadcastPresence(target, te.pid, te.vpn, true);
                  });
    }

    std::uint64_t
    remoteLookups() const
    {
        return sum(&PerChiplet::remote_lookups);
    }

    std::uint64_t remoteHits() const { return sum(&PerChiplet::remote_hits); }
    std::uint64_t spills() const { return sum(&PerChiplet::spills); }

    std::uint64_t
    atsFallbacks() const
    {
        return sum(&PerChiplet::ats_fallbacks);
    }

  private:
    /**
     * One chiplet's tracker replica and counters; only touched from
     * its owner's context (updates arrive as interconnect messages).
     */
    struct alignas(64) PerChiplet : DomainOwned
    {
        /** (pid, vpn) -> bitmask of chiplets believed to hold it. */
        std::unordered_map<std::uint64_t, std::uint32_t> presence;
        bool in_spill = false;
        Counter remote_lookups;
        Counter remote_hits;
        Counter spills;
        Counter ats_fallbacks;
    };

    static std::uint64_t
    trackerKey(ProcessId pid, Vpn vpn)
    {
        return (std::uint64_t{pid} << 52) ^ vpn;
    }

    std::uint64_t
    sum(Counter PerChiplet::*member) const
    {
        std::uint64_t n = 0;
        for (const PerChiplet &ch : chips_)
            n += (ch.*member).value();
        return n;
    }

    /** Broadcast one insert/evict to every peer's tracker replica. */
    void
    broadcastPresence(ChipletId from, ProcessId pid, Vpn vpn, bool add)
    {
        const std::uint64_t key = trackerKey(pid, vpn);
        const std::uint32_t bit = 1u << from;
        for (std::uint32_t p = 0; p < chips_.size(); ++p) {
            if (p == from)
                continue;
            noc_.send(from, static_cast<ChipletId>(p),
                      params_.tracker_update_bytes,
                      [this, p, key, bit, add]() {
                          PerChiplet &ch = chips_[p];
                          if (add) {
                              ch.presence[key] |= bit;
                              return;
                          }
                          auto it = ch.presence.find(key);
                          if (it == ch.presence.end())
                              return;
                          it->second &= ~bit;
                          if (it->second == 0)
                              ch.presence.erase(it);
                      });
        }
    }

    void
    serveAtPeer(ProcessId pid, Vpn vpn, ChipletId src, ChipletId peer,
                Iommu::ResponseHandler done)
    {
        auto te = l2_tlbs_[peer]->peek(pid, vpn);
        if (!te) {
            // The replica was stale (raced an eviction); NACK back and
            // fall into the conventional path from the requester.
            ++chips_[peer].ats_fallbacks;
            noc_.send(peer, src, params_.reply_bytes,
                      [this, pid, vpn, src,
                       done = std::move(done)]() mutable {
                          iommu_.sendAts(pid, vpn, src, std::move(done));
                      });
            return;
        }
        ++chips_[peer].remote_hits;
        AtsResponse resp;
        resp.pid = pid;
        resp.vpn = vpn;
        resp.pfn = te->pfn;
        resp.coal = te->coal;
        noc_.send(peer, src, params_.reply_bytes,
                  [done = std::move(done), resp]() { done(resp); });
    }

    Iommu &iommu_;
    Interconnect &noc_;
    LeastParams params_;
    bool shared_bypass_ = false;
    // domain-owner:chiplet domain-cross:message — indexed by the
    // executing context only (own lookups, probe service at the peer);
    // cross-chiplet reads/spills ride Interconnect::send.
    std::vector<Tlb *> l2_tlbs_;
    std::vector<PerChiplet> chips_;
};

} // namespace barre
