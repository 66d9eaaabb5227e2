#include "gpu/shared_tlb.hh"

#include "sim/logging.hh"

namespace barre
{

SharedTlbService::SharedTlbService(EventQueue &eq, std::string name,
                                   const SharedTlbParams &params,
                                   const TlbParams &tlb_params,
                                   std::uint32_t chiplets,
                                   Cycles retry_interval)
    : SimObject(eq, std::move(name)), params_(params),
      l2_(eq, this->name() + ".l2", tlb_params, 0, chiplets,
          retry_interval, [this](ChipletId src, ProcessId pid, Vpn vpn) {
              launch(src, pid, vpn);
          })
{
    const LinkParams lp{params_.bytes_per_cycle, params_.latency};
    for (std::uint32_t c = 0; c < chiplets; ++c) {
        req_links_.push_back(std::make_unique<Link>(
            eq, this->name() + ".req" + std::to_string(c), lp));
        resp_links_.push_back(std::make_unique<Link>(
            eq, this->name() + ".resp" + std::to_string(c), lp));
    }
}

void
SharedTlbService::lookupFrom(ChipletId src, ProcessId pid, Vpn vpn,
                             FillCont cont)
{
    req_links_[src]->sendTo(
        kHostTag, params_.req_bytes,
        [this, src, pid, vpn, cont = std::move(cont)]() mutable {
            l2_.lookup(src, pid, vpn,
                       [this, src, cont = std::move(cont)](
                           const TlbEntry &te) mutable {
                           respond(src, te, std::move(cont));
                       });
        });
}

void
SharedTlbService::launch(ChipletId src, ProcessId pid, Vpn vpn)
{
    barre_assert(service_ != nullptr, "no translation service wired");
    auto translate = [this, pid, vpn, src]() {
        service_->translate(
            pid, vpn, src, [this, src](const AtsResponse &resp) {
                // The response lands at the requesting chiplet (PCIe
                // downstream); bounce the fill back to the shared block
                // over that chiplet's request wire.
                req_links_[src]->sendTo(
                    kHostTag, params_.resp_bytes,
                    [this, src, resp]() { l2_.fill(src, resp); });
            });
    };
    if (service_->translateNeedsRequester()) {
        // Per-chiplet translate state (Valkyrie's prefetcher shard)
        // must be driven from the requester's context; ship the miss
        // back over the response wire first.
        resp_links_[src]->sendTo(chipletTag(src), params_.req_bytes,
                                 std::move(translate));
        return;
    }
    translate();
}

void
SharedTlbService::respond(ChipletId dst, const TlbEntry &te,
                          FillCont cont)
{
    resp_links_[dst]->sendTo(chipletTag(dst), params_.resp_bytes,
                             [cont = std::move(cont), te]() { cont(te); });
}

void
SharedTlbService::unsolicitedFillFrom(ChipletId src,
                                      const AtsResponse &resp)
{
    req_links_[src]->sendTo(kHostTag, params_.resp_bytes,
                            [this, src, resp]() {
                                l2_.unsolicitedFill(src, resp);
                            });
}

} // namespace barre
