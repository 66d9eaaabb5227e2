#include "gpu/l2_tlb_stage.hh"

#include "sim/logging.hh"

namespace barre
{

L2TlbStage::L2TlbStage(EventQueue &eq, std::string name,
                       const TlbParams &params, ChipletId first,
                       std::uint32_t requesters, Cycles retry_interval,
                       Launch launch)
    : SimObject(eq, std::move(name)), first_(first),
      retry_interval_(retry_interval), launch_(std::move(launch)),
      tlb_(params), mshr_(params.mshrs), misses_(requesters),
      retries_(requesters)
{}

void
L2TlbStage::fill(ChipletId src, const AtsResponse &resp)
{
    if (validator_)
        validator_(resp.pid, resp.vpn, resp.pfn, resp.calculated);
    const TlbEntry te = install(src, resp);
    mshr_.complete(Mshr<TlbEntry>::keyOf(resp.pid, resp.vpn), te);
    wake();
}

TlbEntry
L2TlbStage::install(ChipletId src, const AtsResponse &resp)
{
    if (service_)
        service_->onResponse(src, resp);
    TlbEntry te;
    te.pid = resp.pid;
    te.vpn = resp.vpn;
    te.pfn = resp.pfn;
    te.coal = resp.coal;
    te.valid = true;
    tlb_.insert(te);
    if (service_)
        service_->onL2Insert(src, te);
    return te;
}

void
L2TlbStage::wake()
{
    // A completion freed a slot, and full() stays false until the
    // retries run, so every parked request is released; each re-runs
    // the lookup step (and may hit now, merge, or re-park). They travel
    // as one batch over the two hops a lone retry takes. Released one
    // by one, their events would be scheduled back to back and so fire
    // as an uninterrupted block; the batch event takes that block's
    // place in the firing order and runs the steps in the same FIFO
    // order.
    if (parked_.empty())
        return;
    barre_assert(!mshr_.full(), "unparking with no free MSHR");
    std::vector<Parked> batch;
    batch.swap(parked_);
    after(retry_interval_, [this, batch = std::move(batch)]() mutable {
        after(tlb_.params().lookup_latency,
              [this, batch = std::move(batch)]() mutable {
                  for (Parked &p : batch)
                      step(p.src, p.pid, p.vpn, std::move(p.cont));
              });
    });
}

} // namespace barre
