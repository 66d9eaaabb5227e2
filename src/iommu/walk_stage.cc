#include "iommu/walk_stage.hh"

#include <algorithm>
#include <optional>

#include "sim/invariant.hh"
#include "sim/logging.hh"

namespace barre
{

WalkStage::WalkStage(EventQueue &eq, std::string name,
                     const WalkStageParams &params,
                     const PageTables &tables, const PecBuffer &pec,
                     const MemoryMap &map, WalkHooks hooks)
    : SimObject(eq, std::move(name)), params_(params), tables_(tables),
      pec_(pec), map_(map), hooks_(std::move(hooks))
{}

const PageTable &
WalkStage::tableFor(ProcessId pid) const
{
    PageTable *const *pt = tables_.find(pid);
    barre_assert(pt != nullptr, "no page table for process %u", pid);
    return **pt;
}

AtsResponse
WalkStage::responseFor(ProcessId pid, Vpn vpn, Pfn pfn, CoalInfo coal) const
{
    AtsResponse resp{pid, vpn, pfn, coal};
    if (params_.barre && coal.coalesced()) {
        if (const PecEntry *e = pec_.find(pid, vpn)) {
            resp.has_pec = true;
            resp.pec = *e;
        }
    }
    return resp;
}

void
WalkStage::detach(ProcessId pid)
{
    domainCheck("detach");
    // Detach only quiesced processes: a queued or walking request
    // would complete against a freed page table.
    for (const auto *q : {&queue_, &overflow_})
        for (const WalkRequest &r : *q)
            barre_assert(r.pid != pid,
                         "detachProcess(%u) with a queued walk", pid);
    for (const auto &[p, vpn] : in_flight_)
        barre_assert(p != pid,
                     "detachProcess(%u) with a walk in flight", pid);
    last_served_.erase(pid);
}

void
WalkStage::enqueue(WalkRequest req)
{
    domainCheck("enqueue");
    if (params_.ptws != 0 && queue_.size() >= params_.queue_entries)
        overflow_.push_back(std::move(req));
    else
        queue_.push_back(std::move(req));
    queue_depth_.sample(
        static_cast<double>(queue_.size() + overflow_.size()));
    BARRE_AUDIT(
        barre_assert(params_.ptws == 0 ||
                         queue_.size() <= params_.queue_entries,
                     "%s: PW queue overran its %u entries",
                     name().c_str(), params_.queue_entries);
        barre_assert(params_.ptws == 0 || in_flight_.size() <= params_.ptws,
                     "%s: %zu walks in flight with only %u PTWs",
                     name().c_str(), in_flight_.size(), params_.ptws));
    dispatch();
}

void
WalkStage::promote(std::size_t n)
{
    while (n-- > 0 && !overflow_.empty()) {
        queue_.push_back(std::move(overflow_.front()));
        overflow_.pop_front();
    }
}

bool
WalkStage::coalescibleWithInFlight(const WalkRequest &req) const
{
    const PecEntry *entry = pec_.find(req.pid, req.vpn);
    return entry &&
           std::any_of(in_flight_.begin(), in_flight_.end(),
                       [&](const std::pair<ProcessId, Vpn> &walk) {
                           return walk.first == req.pid &&
                                  (walk.second == req.vpn ||
                                   pec::sameGroup(*entry, walk.second,
                                                  req.vpn,
                                                  params_.merge_width));
                       });
}

void
WalkStage::dispatch()
{
    domainCheck("dispatch");
    const bool coal_sched = params_.barre && params_.coal_aware_sched;
    while (!queue_.empty() &&
           (params_.ptws == 0 || in_flight_.size() < params_.ptws)) {
        std::size_t pick = 0;
        if (params_.fair_pw_sched) {
            // Per-tenant fairness: dispatch the request whose process
            // was least recently granted a walker; FIFO breaks ties
            // (and orders never-served processes). Coalescible
            // requests stay deferred exactly as in the FIFO path.
            bool found = false;
            std::uint64_t best = 0;
            for (std::size_t i = 0; i < queue_.size(); ++i) {
                if (coal_sched && coalescibleWithInFlight(queue_[i]))
                    continue;
                auto it = last_served_.find(queue_[i].pid);
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
            while (rotations < queue_.size() &&
                   coalescibleWithInFlight(queue_.front())) {
                queue_.push_back(std::move(queue_.front()));
                queue_.pop_front();
                ++deferrals_;
                ++rotations;
            }
            if (rotations == queue_.size() && rotations > 0)
                break; // everything pending will be calculated shortly
        }
        WalkRequest req = std::move(queue_[pick]);
        queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(pick));
        if (params_.fair_pw_sched)
            last_served_[req.pid] = ++serve_stamp_;
        promote(1);
        startWalk(std::move(req));
    }
}

void
WalkStage::startWalk(WalkRequest req)
{
    in_flight_.emplace_back(req.pid, req.vpn);
    const Cycles latency = hooks_.start(req);
    after(latency, [this, req = std::move(req)]() mutable {
        const auto walk = std::make_pair(req.pid, req.vpn);
        finish(std::move(req));
        auto it = std::find(in_flight_.begin(), in_flight_.end(), walk);
        barre_assert(it != in_flight_.end(), "%s: lost walk",
                     name().c_str());
        in_flight_.erase(it);
        dispatch();
    });
}

void
WalkStage::finish(WalkRequest req)
{
    domainCheck("finish");
    auto pte = tableFor(req.pid).walk(req.vpn);
    if (!pte) {
        barre_assert(hooks_.missing, "%s: page fault for vpn 0x%llx",
                     name().c_str(), (unsigned long long)req.vpn);
        hooks_.missing(std::move(req));
        return;
    }
    const AtsResponse resp =
        responseFor(req.pid, req.vpn, pte->pfn(), pte->coalInfo());
    if (hooks_.fill)
        hooks_.fill(resp);
    hooks_.respond(req, resp, 0);
    if (!resp.has_pec)
        return;

    // PEC scan: exact-VPN duplicates from other chiplets are served by
    // the same PTE, other group members by calculation. (Erase first,
    // refill the bounded queue from the overflow afterwards - mutating
    // the deque mid-scan would invalidate the iterator.)
    Cycles extra = 0;
    std::size_t served = 0;
    for (auto it = queue_.begin(); it != queue_.end();) {
        std::optional<PecCalc> calc;
        if (it->pid != req.pid ||
            (it->vpn != req.vpn &&
             !(calc = pec::calcPending(resp.pec, req.vpn, resp.pfn,
                                       resp.coal, it->vpn, map_)))) {
            ++it;
            continue;
        }
        AtsResponse out = calc ? calculated(resp, it->vpn, *calc) : resp;
        out.calculated = true;
        if (calc && hooks_.fill)
            hooks_.fill(out);
        extra += params_.pec_calc_latency;
        hooks_.respond(*it, std::move(out), extra);
        it = queue_.erase(it);
        ++served;
    }
    promote(served);
    if (hooks_.coalesced)
        hooks_.coalesced(req, resp);
}

AtsResponse
WalkStage::calculated(const AtsResponse &walked, Vpn vpn,
                      const PecCalc &calc) const
{
    // The calculated PFN is about to skip a walk; it must agree with
    // the authoritative table.
    BARRE_AUDIT(if (auto truth = tableFor(walked.pid).walk(vpn)) {
        barre_assert(truth->pfn() == calc.pfn,
                     "PEC-calculated PFN %llx for vpn %llx diverges "
                     "from page-table PFN %llx",
                     (unsigned long long)calc.pfn, (unsigned long long)vpn,
                     (unsigned long long)truth->pfn());
    });
    AtsResponse out = walked;
    out.vpn = vpn;
    out.pfn = calc.pfn;
    out.coal = calc.coal;
    out.calculated = true;
    return out;
}

} // namespace barre
