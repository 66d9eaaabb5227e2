#include "iommu/gmmu.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace barre
{

GmmuSystem::GmmuSystem(EventQueue &eq, std::string name,
                       const GmmuParams &params, std::uint32_t chiplets,
                       Interconnect &noc, const MemoryMap &map,
                       HomeFn home_of)
    : SimObject(eq, std::move(name)), params_(params), noc_(noc),
      map_(map), home_of_(std::move(home_of)),
      pec_buffer_(params.pec_buffer_entries), nodes_(chiplets)
{}

void
GmmuSystem::attachPageTable(PageTable &pt)
{
    page_tables_[pt.pid()] = &pt;
}

const PageTable *
GmmuSystem::tableFor(ProcessId pid) const
{
    PageTable *const *pt = page_tables_.find(pid);
    barre_assert(pt != nullptr, "no page table for process %u", pid);
    return *pt;
}

void
GmmuSystem::translate(ProcessId pid, Vpn vpn, ChipletId requester,
                      ResponseHandler on_response)
{
    ChipletId home = home_of_(pid, vpn);
    Request req{pid, vpn, requester, curTick(), std::move(on_response),
                home != requester};
    if (home == requester) {
        enqueueAt(home, std::move(req));
    } else {
        noc_.send(requester, home, params_.request_bytes,
                  [this, home, req = std::move(req)]() mutable {
                      enqueueAt(home, std::move(req));
                  });
    }
}

void
GmmuSystem::enqueueAt(ChipletId home, Request req)
{
    Node &node = nodes_[home];
    node.dom.domainCheck("enqueueAt");
    if (node.queue.size() >= params_.queue_entries)
        node.overflow.push_back(std::move(req));
    else
        node.queue.push_back(std::move(req));
    tryDispatch(home);
}

void
GmmuSystem::tryDispatch(ChipletId home)
{
    Node &node = nodes_[home];
    node.dom.domainCheck("tryDispatch");
    while (!node.queue.empty() && node.busy < params_.ptws_per_chiplet) {
        Request req = std::move(node.queue.front());
        node.queue.pop_front();
        if (!node.overflow.empty()) {
            node.queue.push_back(std::move(node.overflow.front()));
            node.overflow.pop_front();
        }
        ++node.busy;
        if (req.remote)
            ++remote_walks_;
        else
            ++local_walks_;
        const ProcessId pid = req.pid;
        const Vpn vpn = req.vpn;
        node.in_flight.emplace_back(pid, vpn);
        after(params_.walk_latency,
              [this, home, pid, vpn, req = std::move(req)]() mutable {
                  completeWalk(home, std::move(req));
                  Node &n = nodes_[home];
                  auto it = std::find(n.in_flight.begin(),
                                      n.in_flight.end(),
                                      std::make_pair(pid, vpn));
                  barre_assert(it != n.in_flight.end(), "lost GMMU walk");
                  n.in_flight.erase(it);
                  --n.busy;
                  tryDispatch(home);
              });
    }
}

void
GmmuSystem::completeWalk(ChipletId home, Request req)
{
    nodes_[home].dom.domainCheck("completeWalk");
    auto pte = tableFor(req.pid)->walk(req.vpn);
    barre_assert(pte.has_value(), "GMMU page fault for vpn 0x%llx",
                 (unsigned long long)req.vpn);

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

    deliver(home, req, resp);

    if (!entry)
        return;

    // PEC scan of this GMMU's queue (the Barre Chord integration of
    // §VII-F: calculated PFNs remove queued local & remote walks).
    Node &node = nodes_[home];
    Cycles extra = 0;
    std::size_t served_count = 0;
    for (auto it = node.queue.begin(); it != node.queue.end();) {
        bool served = false;
        if (it->pid == req.pid) {
            AtsResponse out;
            if (it->vpn == req.vpn) {
                out = resp;
                out.calculated = true;
                served = true;
            } else if (auto calc = pec::calcPending(
                           *entry, req.vpn, resp.pfn, resp.coal,
                           it->vpn, map_)) {
                out.pid = it->pid;
                out.vpn = it->vpn;
                out.pfn = calc->pfn;
                out.coal = calc->coal;
                out.has_pec = true;
                out.pec = *entry;
                out.calculated = true;
                served = true;
            }
            if (served) {
                extra += params_.pec_calc_latency;
                ++coalesced_;
                Request pending = std::move(*it);
                it = node.queue.erase(it);
                ++served_count;
                after(extra,
                      [this, home, pending = std::move(pending),
                       out = std::move(out)]() mutable {
                          deliver(home, pending, std::move(out));
                      });
                continue;
            }
        }
        ++it;
    }
    // Refill the bounded queue after the scan (mutating mid-scan would
    // invalidate the iterator).
    while (served_count-- > 0 && !node.overflow.empty()) {
        node.queue.push_back(std::move(node.overflow.front()));
        node.overflow.pop_front();
    }
}

void
GmmuSystem::deliver(ChipletId home, Request &req, AtsResponse resp)
{
    if (home == req.requester) {
        // Local response: a couple of cycles of GMMU egress.
        after(2, [respond = std::move(req.respond),
                  resp = std::move(resp)]() { respond(resp); });
    } else {
        noc_.send(home, req.requester, params_.response_bytes,
                  [respond = std::move(req.respond),
                   resp = std::move(resp)]() { respond(resp); });
    }
}

} // namespace barre
