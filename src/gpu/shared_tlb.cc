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
      retry_interval_(retry_interval), misses_(chiplets),
      retries_(chiplets)
{
    tlb_ = std::make_unique<Tlb>(tlb_params);
    mshr_ = std::make_unique<Mshr<TlbEntry>>(tlb_params.mshrs);
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
            after(tlb_->params().lookup_latency,
                  [this, src, pid, vpn,
                   cont = std::move(cont)]() mutable {
                      serveAtHost(src, pid, vpn, std::move(cont));
                  });
        });
}

void
SharedTlbService::serveAtHost(ChipletId src, ProcessId pid, Vpn vpn,
                              FillCont cont)
{
    if (auto te = tlb_->lookup(pid, vpn)) {
        respond(src, *te, std::move(cont));
        return;
    }
    const auto key = Mshr<TlbEntry>::keyOf(pid, vpn);

    // Back-pressure: a full MSHR file (with no in-flight entry to merge
    // onto) parks the request host-side; it re-runs the lookup stage
    // when a slot frees up. The demand miss is counted when the request
    // finally proceeds, so parked retries are not double counted.
    if (!mshr_->inFlight(key) && mshr_->full()) {
        ++retries_[src];
        parked_.push_back(Parked{src, pid, vpn, std::move(cont)});
        return;
    }
    ++misses_[src];

    auto outcome = mshr_->allocate(
        key, [this, src, cont = std::move(cont)](
                 const TlbEntry &te) mutable {
            respond(src, te, std::move(cont));
        });
    if (outcome == Mshr<TlbEntry>::Outcome::secondary)
        return; // merged onto the in-flight miss

    barre_assert(service_ != nullptr, "no translation service wired");
    auto launch = [this, pid, vpn, src, key]() {
        service_->translate(
            pid, vpn, src, [this, src, key](const AtsResponse &resp) {
                // The response lands at the requesting chiplet (PCIe
                // downstream); bounce the fill back to the shared block
                // over that chiplet's request wire.
                req_links_[src]->sendTo(kHostTag, params_.resp_bytes,
                                        [this, src, key, resp]() {
                                            completeAtHost(src, key,
                                                           resp);
                                        });
            });
    };
    if (service_->translateNeedsRequester()) {
        // Per-chiplet translate state (Valkyrie's prefetcher shard)
        // must be driven from the requester's context; ship the miss
        // back over the response wire first.
        resp_links_[src]->sendTo(chipletTag(src), params_.req_bytes,
                                 std::move(launch));
        return;
    }
    launch();
}

void
SharedTlbService::respond(ChipletId dst, const TlbEntry &te,
                          FillCont cont)
{
    resp_links_[dst]->sendTo(chipletTag(dst), params_.resp_bytes,
                             [cont = std::move(cont), te]() { cont(te); });
}

void
SharedTlbService::completeAtHost(ChipletId src, std::uint64_t key,
                                 const AtsResponse &resp)
{
    if (validator_)
        validator_(resp.pid, resp.vpn, resp.pfn, resp.calculated);
    if (service_)
        service_->onResponse(src, resp);
    TlbEntry te;
    te.pid = resp.pid;
    te.vpn = resp.vpn;
    te.pfn = resp.pfn;
    te.coal = resp.coal;
    te.valid = true;
    tlb_->insert(te);
    if (service_)
        service_->onL2Insert(src, te);
    mshr_->complete(key, te);
    unpark();
}

void
SharedTlbService::unpark()
{
    // A completion freed a slot, and full() stays false until the
    // retries run, so every parked request is released; each re-runs
    // the lookup stage (and may hit now, merge, or re-park). One batch
    // event stands in for the per-request events, which would fire as
    // an uninterrupted block, and serves them in FIFO order.
    if (parked_.empty())
        return;
    barre_assert(!mshr_->full(), "unparking with no free MSHR");
    std::vector<Parked> batch;
    batch.swap(parked_);
    after(retry_interval_ + tlb_->params().lookup_latency,
          [this, batch = std::move(batch)]() mutable {
              for (Parked &p : batch)
                  serveAtHost(p.src, p.pid, p.vpn, std::move(p.cont));
          });
}

void
SharedTlbService::unsolicitedFillFrom(ChipletId src,
                                      const AtsResponse &resp)
{
    if (resp.pfn == invalid_pfn)
        return;
    req_links_[src]->sendTo(kHostTag, params_.resp_bytes,
                            [this, resp]() {
                                TlbEntry te;
                                te.pid = resp.pid;
                                te.vpn = resp.vpn;
                                te.pfn = resp.pfn;
                                te.coal = resp.coal;
                                te.valid = true;
                                tlb_->insert(te);
                            });
}

} // namespace barre
