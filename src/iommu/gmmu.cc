#include "iommu/gmmu.hh"

namespace barre
{

GmmuSystem::GmmuSystem(EventQueue &eq, std::string name,
                       const GmmuParams &params, std::uint32_t chiplets,
                       Interconnect &noc, const MemoryMap &map,
                       HomeFn home_of)
    : SimObject(eq, std::move(name)), params_(params), noc_(noc),
      home_of_(std::move(home_of)), pec_buffer_(params.pec_buffer_entries)
{
    // FIFO dispatch: the GMMUs have no coalescing-aware scheduler.
    const WalkStageParams sp{.ptws = params.ptws_per_chiplet,
                             .queue_entries = params.queue_entries,
                             .barre = params.barre,
                             .pec_calc_latency = params.pec_calc_latency};
    for (std::uint32_t c = 0; c < chiplets; ++c) {
        stages_.push_back(std::make_unique<WalkStage>(
            eq, this->name() + ".node" + std::to_string(c), sp,
            page_tables_, pec_buffer_, map,
            hooks(static_cast<ChipletId>(c))));
    }
}

void
GmmuSystem::attachPageTable(PageTable &pt)
{
    page_tables_[pt.pid()] = &pt;
}

WalkHooks
GmmuSystem::hooks(ChipletId home)
{
    WalkHooks h; // no missing hook: every GMMU walk must hit a PTE
    h.start = [this, home](const WalkRequest &req) {
        ++(req.src != home ? remote_walks_ : local_walks_);
        return params_.walk_latency;
    };
    h.respond = [this, home](WalkRequest &req, AtsResponse resp,
                             Cycles extra) {
        if (resp.calculated)
            ++coalesced_;
        auto deliver = [this, home, src = req.src,
                        respond = std::move(req.respond),
                        resp = std::move(resp)]() mutable {
            auto done = [respond = std::move(respond),
                         resp = std::move(resp)]() { respond(resp); };
            if (home == src) // a couple of cycles of GMMU egress
                after(2, std::move(done));
            else
                noc_.send(home, src, params_.response_bytes,
                          std::move(done));
        };
        if (extra == 0)
            deliver();
        else
            after(extra, std::move(deliver));
    };
    return h;
}

void
GmmuSystem::translate(ProcessId pid, Vpn vpn, ChipletId requester,
                      ResponseHandler on_response)
{
    ChipletId home = home_of_(pid, vpn);
    WalkRequest req{pid, vpn, requester, curTick(), std::move(on_response)};
    if (home == requester) {
        stages_[home]->enqueue(std::move(req));
    } else {
        noc_.send(requester, home, params_.request_bytes,
                  [this, home, req = std::move(req)]() mutable {
                      stages_[home]->enqueue(std::move(req));
                  });
    }
}

} // namespace barre
