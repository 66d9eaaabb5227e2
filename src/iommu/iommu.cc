#include "iommu/iommu.hh"

#include "sim/logging.hh"

namespace barre
{

Iommu::Iommu(EventQueue &eq, std::string name, const IommuParams &params,
             Pcie &pcie, const MemoryMap &map)
    : SimObject(eq, std::move(name)), params_(params), pcie_(pcie),
      memory_map_(&map), pec_buffer_(params.pec_buffer_entries),
      stage_(eq, this->name() + ".pw",
             WalkStageParams{params.ptws, params.pw_queue_entries,
                             params.barre, params.coal_aware_sched,
                             params.fair_pw_sched, params.merge_width,
                             params.pec_calc_latency},
             page_tables_, pec_buffer_, map, hooks())
{
    if (params_.tlb_enabled) {
        TlbParams tp;
        tp.entries = params_.tlb_entries;
        tp.ways = params_.tlb_ways;
        tp.lookup_latency = params_.tlb_latency;
        tlb_ = std::make_unique<Tlb>(tp);
    }
    if (params_.timed_walks) {
        TlbParams pp;
        pp.entries = params_.pwc_entries;
        pp.ways = params_.pwc_ways;
        pp.lookup_latency = params_.pwc_hit_latency;
        pwc_ = std::make_unique<Tlb>(pp);
    }
}

Cycles
Iommu::walkLatency(ProcessId pid, Vpn vpn)
{
    if (!params_.timed_walks)
        return params_.walk_latency;

    // Four radix levels; the PWC caches the three upper-level node
    // prefixes (tagged by level in the key's high bits). The leaf PTE
    // always costs one memory access.
    Cycles latency = 0;
    for (int level = 3; level >= 1; --level) {
        Vpn prefix = (vpn >> (9 * level)) |
                     (static_cast<Vpn>(level) << 40);
        if (pwc_->lookup(pid, prefix)) {
            ++pwc_hits_;
            latency += params_.pwc_hit_latency;
        } else {
            ++pwc_misses_;
            latency += params_.mem_latency_per_level;
            pwc_->insert({pid, prefix, 0, {}, true});
        }
    }
    return latency + params_.mem_latency_per_level;
}

void
Iommu::attachPageTable(PageTable &pt)
{
    page_tables_[pt.pid()] = &pt;
}

void
Iommu::detachProcess(ProcessId pid)
{
    domainCheck("detachProcess");
    stage_.detach(pid);
    page_tables_.erase(pid);
    pec_buffer_.eraseProcess(pid);
    if (tlb_)
        tlb_->invalidateAsid(pid);
    if (pwc_)
        pwc_->invalidateAsid(pid);
    ++detaches_;
}

void
Iommu::sendAts(ProcessId pid, Vpn vpn, ChipletId src,
               ResponseHandler on_response)
{
    pcie_.toHost(params_.ats_request_bytes,
                 [this, pid, vpn, src,
                  respond = std::move(on_response)]() mutable {
                     ++ats_requests_;
                     if (vpn_probe_)
                         vpn_probe_(vpn);
                     WalkRequest req{pid, vpn, src, curTick(),
                                     std::move(respond)};
                     if (tlb_) {
                         // Serial IOMMU TLB probe before the walkers.
                         after(params_.tlb_latency,
                               [this, req = std::move(req)]() mutable {
                                   auto hit = tlb_->lookup(req.pid,
                                                           req.vpn);
                                   if (hit) {
                                       ++tlb_hits_;
                                       respondTo(req,
                                                 stage_.responseFor(
                                                     req.pid, req.vpn,
                                                     hit->pfn, hit->coal),
                                                 0);
                                       return;
                                   }
                                   stage_.enqueue(std::move(req));
                               });
                         return;
                     }
                     stage_.enqueue(std::move(req));
                 });
}

void
Iommu::bindDomainTree(DomainGuard *guard)
{
    bindDomain(guard, kHostTag, name());
    if (tlb_)
        tlb_->bindDomain(guard, kHostTag, name() + ".tlb");
    if (pwc_)
        pwc_->bindDomain(guard, kHostTag, name() + ".pwc");
    pec_buffer_.bindDomain(guard, kHostTag, name() + ".pec");
    stage_.bindDomain(guard, kHostTag, stage_.name());
}

WalkHooks
Iommu::hooks()
{
    WalkHooks h;
    h.start = [this](const WalkRequest &req) {
        ++walks_;
        return walkLatency(req.pid, req.vpn);
    };
    h.missing = [this](WalkRequest &&req) {
        if (!fault_handler_) {
            // Unmapped VPN (e.g. a prefetch past the end of a buffer):
            // respond with an invalid PFN; demand requests are
            // pre-mapped.
            respondTo(req, AtsResponse{req.pid, req.vpn}, 0);
            return;
        }
        // Demand paging: park the request, service the fault, and
        // retry the (now-warm) walk completion once.
        ++page_faults_;
        after(params_.fault_latency, [this, req = std::move(req)]() mutable {
            fault_handler_(req.pid, req.vpn);
            if (stage_.tableFor(req.pid).walk(req.vpn))
                stage_.finish(std::move(req));
            else
                respondTo(req, AtsResponse{req.pid, req.vpn}, 0);
        });
    };
    h.respond = [this](WalkRequest &req, AtsResponse resp, Cycles extra) {
        respondTo(req, std::move(resp), extra);
    };
    if (params_.tlb_enabled) {
        h.fill = [this](const AtsResponse &r) {
            tlb_->insert({r.pid, r.vpn, r.pfn, r.coal, true});
        };
    }
    if (params_.multicast) {
        h.coalesced = [this](const WalkRequest &req,
                             const AtsResponse &resp) {
            multicastGroup(req, resp);
        };
    }
    return h;
}

void
Iommu::multicastGroup(const WalkRequest &req, const AtsResponse &resp)
{
    if (!fill_sink_)
        return;
    // Push every other member's calculated translation to the chiplet
    // the layout maps it to. Each push is a full response packet on
    // the downstream link - exactly the outbound-bandwidth cost the
    // paper measured to be a net loss (§IV-B).
    Cycles extra = 0;
    for (Vpn member : pec::groupMembers(resp.pec, req.vpn, resp.coal)) {
        if (member == req.vpn)
            continue;
        auto calc = pec::calcPending(resp.pec, req.vpn, resp.pfn,
                                     resp.coal, member, *memory_map_);
        if (!calc)
            continue;
        ChipletId target = resp.pec.chipletOf(member);
        extra += params_.pec_calc_latency;
        ++multicasts_;
        after(extra, [this, target,
                      push = stage_.calculated(resp, member,
                                               *calc)]() mutable {
            pcie_.toDevice(chipletTag(target),
                           params_.ats_response_coal_bytes,
                           [this, target, push = std::move(push)]() {
                               fill_sink_(target, push);
                           });
        });
    }
}

void
Iommu::respondTo(WalkRequest &req, AtsResponse resp, Cycles extra)
{
    if (resp.calculated)
        ++coalesced_;
    std::uint32_t bytes = resp.has_pec ? params_.ats_response_coal_bytes
                                       : params_.ats_response_bytes;
    // The delivery callback executes in the target chiplet's
    // sequencing context, where host-side stats must not be touched
    // in partitioned mode. The downstream link is host-owned, so its
    // arrival tick is already exact at send time: sample processing
    // time there, in deterministic host order.
    auto send = [this, bytes, dst = chipletTag(req.src),
                 arrival = req.arrival, respond = std::move(req.respond),
                 resp = std::move(resp)]() mutable {
        const Tick at = pcie_.toDevice(
            dst, bytes,
            [respond = std::move(respond), resp = std::move(resp)]() {
                respond(resp);
            });
        processing_time_.sample(static_cast<double>(at - arrival));
    };
    if (extra == 0)
        send();
    else
        after(extra, std::move(send));
}

} // namespace barre
