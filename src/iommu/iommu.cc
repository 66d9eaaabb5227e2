#include "iommu/iommu.hh"

#include <algorithm>

#include "sim/invariant.hh"
#include "sim/logging.hh"

namespace barre
{

Iommu::Iommu(EventQueue &eq, std::string name, const IommuParams &params,
             Pcie &pcie, const MemoryMap &map)
    : SimObject(eq, std::move(name)), params_(params), pcie_(pcie),
      memory_map_(&map), pec_buffer_(params.pec_buffer_entries)
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
            TlbEntry te;
            te.pid = pid;
            te.vpn = prefix;
            te.pfn = 0;
            te.valid = true;
            pwc_->insert(te);
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
    // Detach only quiesced processes: a queued or walking request
    // would complete against a freed page table.
    for (const Request &r : pw_queue_)
        barre_assert(r.pid != pid,
                     "detachProcess(%u) with a queued walk", pid);
    for (const Request &r : overflow_)
        barre_assert(r.pid != pid,
                     "detachProcess(%u) with an overflowed walk", pid);
    for (const auto &[p, vpn] : in_flight_)
        barre_assert(p != pid,
                     "detachProcess(%u) with a walk in flight", pid);

    page_tables_.erase(pid);
    pec_buffer_.eraseProcess(pid);
    if (tlb_)
        tlb_->invalidateAsid(pid);
    if (pwc_)
        pwc_->invalidateAsid(pid);
    last_served_.erase(pid);
    ++detaches_;
}

const PageTable *
Iommu::tableFor(ProcessId pid) const
{
    PageTable *const *pt = page_tables_.find(pid);
    barre_assert(pt != nullptr, "no page table for process %u", pid);
    return *pt;
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
                     Request req{pid, vpn, src, curTick(),
                                 std::move(respond)};
                     if (tlb_) {
                         // Serial IOMMU TLB probe before the walkers.
                         after(params_.tlb_latency,
                               [this, req = std::move(req)]() mutable {
                                   auto hit = tlb_->lookup(req.pid,
                                                           req.vpn);
                                   if (hit) {
                                       ++tlb_hits_;
                                       AtsResponse resp;
                                       resp.pid = req.pid;
                                       resp.vpn = req.vpn;
                                       resp.pfn = hit->pfn;
                                       resp.coal = hit->coal;
                                       if (params_.barre &&
                                           hit->coal.coalesced()) {
                                           const PecEntry *e =
                                               pec_buffer_.find(req.pid,
                                                                req.vpn);
                                           if (e) {
                                               resp.has_pec = true;
                                               resp.pec = *e;
                                           }
                                       }
                                       respondTo(req, resp, 0);
                                       return;
                                   }
                                   enqueue(std::move(req));
                               });
                         return;
                     }
                     enqueue(std::move(req));
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
}

void
Iommu::enqueue(Request req)
{
    domainCheck("enqueue");
    if (params_.ptws != 0 &&
        pw_queue_.size() >= params_.pw_queue_entries) {
        overflow_.push_back(std::move(req));
    } else {
        pw_queue_.push_back(std::move(req));
    }
    queue_depth_.sample(
        static_cast<double>(pw_queue_.size() + overflow_.size()));
    BARRE_AUDIT(
        barre_assert(params_.ptws == 0 ||
                     pw_queue_.size() <= params_.pw_queue_entries,
                     "PW queue overran its %u entries",
                     params_.pw_queue_entries);
        barre_assert(params_.ptws == 0 || busy_ptws_ <= params_.ptws,
                     "%u walks in flight with only %u PTWs", busy_ptws_,
                     params_.ptws));
    tryDispatch();
}

bool
Iommu::coalescibleWithInFlight(const Request &req) const
{
    const PecEntry *entry = pec_buffer_.find(req.pid, req.vpn);
    if (!entry)
        return false;
    for (const auto &[pid, vpn] : in_flight_) {
        if (pid != req.pid)
            continue;
        if (vpn == req.vpn ||
            pec::sameGroup(*entry, vpn, req.vpn, params_.merge_width)) {
            return true;
        }
    }
    return false;
}

void
Iommu::tryDispatch()
{
    const bool coal_sched = params_.barre && params_.coal_aware_sched;
    while (!pw_queue_.empty() &&
           (params_.ptws == 0 || busy_ptws_ < params_.ptws)) {
        std::size_t pick = 0;
        if (params_.fair_pw_sched) {
            // Per-tenant fairness: dispatch the request whose process
            // was least recently granted a walker; FIFO breaks ties
            // (and orders never-served processes). Coalescible
            // requests stay deferred exactly as in the FIFO path.
            bool found = false;
            std::uint64_t best = 0;
            for (std::size_t i = 0; i < pw_queue_.size(); ++i) {
                if (coal_sched &&
                    coalescibleWithInFlight(pw_queue_[i]))
                    continue;
                auto it = last_served_.find(pw_queue_[i].pid);
                const std::uint64_t stamp =
                    it != last_served_.end() ? it->second : 0;
                if (!found || stamp < best) {
                    found = true;
                    best = stamp;
                    pick = i;
                }
            }
            if (!found) {
                ++deferrals_;
                break; // everything pending will be calculated shortly
            }
        } else if (coal_sched) {
            // De-prioritize coalescible heads (bounded rotation so a
            // queue of all-coalescible requests still progresses).
            std::size_t rotations = 0;
            while (rotations < pw_queue_.size() &&
                   coalescibleWithInFlight(pw_queue_.front())) {
                pw_queue_.push_back(std::move(pw_queue_.front()));
                pw_queue_.pop_front();
                ++deferrals_;
                ++rotations;
            }
            if (rotations == pw_queue_.size() && rotations > 0)
                break; // everything pending will be calculated shortly
        }
        Request req = std::move(pw_queue_[pick]);
        pw_queue_.erase(pw_queue_.begin() +
                        static_cast<std::ptrdiff_t>(pick));
        if (params_.fair_pw_sched)
            last_served_[req.pid] = ++serve_stamp_;
        if (!overflow_.empty()) {
            pw_queue_.push_back(std::move(overflow_.front()));
            overflow_.pop_front();
        }
        startWalk(std::move(req));
    }
}

void
Iommu::startWalk(Request req)
{
    ++busy_ptws_;
    ++walks_;
    const ProcessId pid = req.pid;
    const Vpn vpn = req.vpn;
    in_flight_.emplace_back(pid, vpn);
    after(walkLatency(pid, vpn),
          [this, pid, vpn, req = std::move(req)]() mutable {
              completeWalk(std::move(req));
              auto it = std::find(in_flight_.begin(), in_flight_.end(),
                                  std::make_pair(pid, vpn));
              barre_assert(it != in_flight_.end(), "lost in-flight walk");
              in_flight_.erase(it);
              --busy_ptws_;
              tryDispatch();
          });
}

void
Iommu::completeWalk(Request req)
{
    auto pte = tableFor(req.pid)->walk(req.vpn);
    if (!pte) {
        if (fault_handler_) {
            // Demand paging: park the request, service the fault, and
            // retry the (now-warm) walk completion once.
            ++page_faults_;
            after(params_.fault_latency,
                  [this, req = std::move(req)]() mutable {
                      fault_handler_(req.pid, req.vpn);
                      if (tableFor(req.pid)->walk(req.vpn)) {
                          completeWalk(std::move(req));
                      } else {
                          AtsResponse miss;
                          miss.pid = req.pid;
                          miss.vpn = req.vpn;
                          respondTo(req, miss, 0);
                      }
                  });
            return;
        }
        // Unmapped VPN (e.g. a prefetch past the end of a buffer):
        // respond with an invalid PFN; demand requests are pre-mapped.
        AtsResponse miss;
        miss.pid = req.pid;
        miss.vpn = req.vpn;
        respondTo(req, miss, 0);
        return;
    }

    AtsResponse resp;
    resp.pid = req.pid;
    resp.vpn = req.vpn;
    resp.pfn = pte->pfn();
    resp.coal = pte->coalInfo();

    const PecEntry *entry = nullptr;
    if (params_.barre && resp.coal.coalesced()) {
        entry = pec_buffer_.find(req.pid, req.vpn);
        if (entry) {
            resp.has_pec = true;
            resp.pec = *entry;
        }
    }

    if (tlb_) {
        TlbEntry te;
        te.pid = req.pid;
        te.vpn = req.vpn;
        te.pfn = resp.pfn;
        te.coal = resp.coal;
        te.valid = true;
        tlb_->insert(te);
    }

    respondTo(req, resp, 0);

    if (!entry)
        return;

    // PEC scan: complete pending PW-queue requests in the same group
    // with calculated PFNs (§IV-F). Exact-VPN duplicates from other
    // chiplets are served by the same PTE. (Erase first, refill the
    // bounded queue from the overflow afterwards - mutating the deque
    // mid-scan would invalidate the iterator.)
    Cycles extra = 0;
    std::size_t served_count = 0;
    for (auto it = pw_queue_.begin(); it != pw_queue_.end();) {
        bool served = false;
        if (it->pid == req.pid) {
            if (it->vpn == req.vpn) {
                AtsResponse dup = resp;
                dup.calculated = true;
                extra += params_.pec_calc_latency;
                ++coalesced_;
                respondTo(*it, dup, extra);
                served = true;
            } else if (auto calc = pec::calcPending(
                           *entry, req.vpn, resp.pfn, resp.coal,
                           it->vpn, *memory_map_)) {
                // The calculated PFN is about to skip this request's
                // walk; it must agree with the authoritative table.
                BARRE_AUDIT(
                    if (auto truth = tableFor(it->pid)->walk(it->vpn)) {
                        barre_assert(
                            truth->pfn() == calc->pfn,
                            "PEC-calculated PFN %llx for vpn %llx "
                            "diverges from page-table PFN %llx",
                            (unsigned long long)calc->pfn,
                            (unsigned long long)it->vpn,
                            (unsigned long long)truth->pfn());
                    });
                AtsResponse co;
                co.pid = it->pid;
                co.vpn = it->vpn;
                co.pfn = calc->pfn;
                co.coal = calc->coal;
                co.has_pec = true;
                co.pec = *entry;
                co.calculated = true;
                extra += params_.pec_calc_latency;
                ++coalesced_;
                if (tlb_) {
                    TlbEntry te;
                    te.pid = co.pid;
                    te.vpn = co.vpn;
                    te.pfn = co.pfn;
                    te.coal = co.coal;
                    te.valid = true;
                    tlb_->insert(te);
                }
                respondTo(*it, co, extra);
                served = true;
            }
        }
        if (served) {
            it = pw_queue_.erase(it);
            ++served_count;
        } else {
            ++it;
        }
    }
    while (served_count-- > 0 && !overflow_.empty()) {
        pw_queue_.push_back(std::move(overflow_.front()));
        overflow_.pop_front();
    }

    if (params_.multicast)
        multicastGroup(req, resp, *entry);
}

void
Iommu::multicastGroup(const Request &req, const AtsResponse &resp,
                      const PecEntry &entry)
{
    if (!fill_sink_)
        return;
    // Push every other member's calculated translation to the chiplet
    // the layout maps it to. Each push is a full response packet on
    // the downstream link - exactly the outbound-bandwidth cost the
    // paper measured to be a net loss (§IV-B).
    Cycles extra = 0;
    for (Vpn member :
         pec::groupMembers(entry, req.vpn, resp.coal)) {
        if (member == req.vpn)
            continue;
        auto calc = pec::calcPending(entry, req.vpn, resp.pfn,
                                     resp.coal, member, *memory_map_);
        if (!calc)
            continue;
        AtsResponse push;
        push.pid = req.pid;
        push.vpn = member;
        push.pfn = calc->pfn;
        push.coal = calc->coal;
        push.has_pec = true;
        push.pec = entry;
        push.calculated = true;
        ChipletId target = entry.chipletOf(member);
        extra += params_.pec_calc_latency;
        ++multicasts_;
        after(extra, [this, target, push = std::move(push)]() mutable {
            pcie_.toDevice(chipletTag(target),
                           params_.ats_response_coal_bytes,
                           [this, target, push = std::move(push)]() {
                               fill_sink_(target, push);
                           });
        });
    }
}

void
Iommu::respondTo(Request &req, AtsResponse resp, Cycles extra)
{
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
