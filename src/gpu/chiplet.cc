#include "gpu/chiplet.hh"

#include "sim/logging.hh"

namespace barre
{

Chiplet::Chiplet(EventQueue &eq, std::string name, ChipletId id,
                 const ChipletParams &params, const MemoryMap &map,
                 Interconnect &noc)
    : SimObject(eq, std::move(name)), id_(id), params_(params), map_(map),
      noc_(noc)
{
    for (std::uint32_t cu = 0; cu < params_.cus; ++cu) {
        l1_tlbs_.push_back(std::make_unique<Tlb>(params_.l1_tlb));
        l1_caches_.push_back(std::make_unique<Cache>(params_.l1_cache));
    }
    owned_l2_ = std::make_unique<L2TlbStage>(
        eq, this->name() + ".l2", params_.l2_tlb, id_, 1,
        params_.retry_interval, [this](ChipletId, ProcessId pid, Vpn vpn) {
            barre_assert(service_ != nullptr, "no translation service wired");
            service_->translate(pid, vpn, id_,
                                [this](const AtsResponse &resp) {
                                    owned_l2_->fill(id_, resp);
                                });
        });
    l2_ = owned_l2_.get();
    l2_cache_ = std::make_unique<Cache>(params_.l2_cache);
    dram_ = std::make_unique<Dram>(eq, this->name() + ".dram",
                                   params_.dram);

    // Mirror this chiplet's L2 TLB evictions into the service (F-Barre
    // filter deletes, Least spill, ...).
    owned_l2_->tlb().setEvictListener([this](const TlbEntry &e) {
        if (service_)
            service_->onL2Evict(id_, e);
    });
}

void
Chiplet::connectSharedTlb(SharedTlbService *svc)
{
    shared_svc_ = svc;
    // Keep l2_ pointing at the shared stage for its per-requester stats
    // and test peeks; the access pipeline itself goes through the
    // service's request/response links, never through this pointer.
    l2_ = &svc->l2();
    owned_l2_.reset();
}

void
Chiplet::setPeers(std::vector<Chiplet *> peers)
{
    peers_ = std::move(peers);
}

void
Chiplet::access(CuId cu, ProcessId pid, Addr vaddr,
                EventQueue::Callback done)
{
    InFlight a;
    a.done = std::move(done);
    a.addr = vaddr;
    a.t0 = curTick();
    a.cu = cu;
    a.pid = pid;
    const std::uint32_t slot = inflight_.acquire(std::move(a));
    after(params_.l1_tlb.lookup_latency,
          inlineOnly([this, slot] { lookupL1(slot); }));
}

void
Chiplet::lookupL1(std::uint32_t slot)
{
    InFlight &a = inflight_[slot];
    const Vpn vpn = vpnOf(a.addr, params_.page_size);
    if (auto te = l1_tlbs_[a.cu]->lookup(a.pid, vpn)) {
        dataAccess(slot, *te);
        return;
    }
    // Valkyrie: probe sibling L1 TLBs inside the chiplet.
    if (params_.sibling_l1_probe) {
        for (std::uint32_t s = 0; s < params_.cus; ++s) {
            if (s == a.cu)
                continue;
            if (auto te = l1_tlbs_[s]->peek(a.pid, vpn)) {
                ++sibling_hits_;
                l1_tlbs_[a.cu]->insert(*te);
                a.sibling_pfn = te->pfn;
                after(params_.sibling_probe_latency,
                      inlineOnly([this, slot] {
                          // peek() matched (pid, vpn) exactly.
                          const InFlight &a = inflight_[slot];
                          dataAccess(slot,
                                     {a.pid, vpnOf(a.addr, params_.page_size),
                                      a.sibling_pfn, {}, true});
                      }));
                return;
            }
        }
    }
    ++l2_demand_accesses_;
    translateAtL2(slot);
}

void
Chiplet::translateAtL2(std::uint32_t slot)
{
    const InFlight &a = inflight_[slot];
    const Vpn vpn = vpnOf(a.addr, params_.page_size);
    auto fill = inlineOnly([this, slot](const TlbEntry &te) {
        l1_tlbs_[inflight_[slot].cu]->insert(te);
        dataAccess(slot, te);
    });
    // The package-shared block serves the L2 stage host-side; the fill
    // fires back here once its response arrives.
    if (shared_svc_)
        shared_svc_->lookupFrom(id_, a.pid, vpn, std::move(fill));
    else
        owned_l2_->lookup(id_, a.pid, vpn, std::move(fill));
}

template <typename F>
void
Chiplet::serveRemoteData(Addr paddr, F done)
{
    after(params_.l2_cache.hit_latency, inlineOnly([this, paddr, done] {
              if (l2_cache_->access(paddr)) {
                  done();
                  return;
              }
              dram_->access(done);
          }));
}

void
Chiplet::dataAccess(std::uint32_t slot, const TlbEntry &te)
{
    InFlight &a = inflight_[slot];
    if (lat_probe_)
        lat_probe_(a.pid, curTick() - a.t0);
    Addr offset = pageOffset(a.addr, params_.page_size);
    a.addr = paddrOf(te.pfn, offset, params_.page_size);
    const ChipletId owner = map_.chipletOf(te.pfn);

    Cycles stall = 0;
    if (migrator_) {
        stall = migrator_->recordAccess(curTick(), a.pid, te.vpn, id_,
                                        owner);
    }

    if (l1_caches_[a.cu]->access(a.addr)) {
        after(stall + params_.l1_cache.hit_latency, retire(slot));
        return;
    }

    if (owner == id_) {
        ++local_data_;
        after(stall + params_.l2_cache.hit_latency,
              inlineOnly([this, slot] {
                  if (l2_cache_->access(inflight_[slot].addr)) {
                      retire(slot)();
                      return;
                  }
                  dram_->access(retire(slot));
              }));
        return;
    }

    ++remote_data_;
    barre_assert(owner < peers_.size() && peers_[owner] != nullptr,
                 "peer %u not wired", owner);
    // The request and the peer's service run in the peer's domain:
    // they carry the peer and the address by value, and only the reply
    // comes back here for the slot.
    after(stall, inlineOnly([this, slot, peer = peers_[owner]] {
        const Addr paddr = inflight_[slot].addr;
        noc_.send(id_, peer->id(), params_.remote_req_bytes,
                  inlineOnly([this, peer, paddr, slot] {
                      peer->serveRemoteData(
                          paddr, inlineOnly([this, peer, slot] {
                              noc_.send(peer->id(), id_,
                                        params_.remote_resp_bytes,
                                        inlineOnly([this, slot] {
                                            retire(slot)();
                                        }));
                          }));
                  }));
    }));
}

void
Chiplet::shootdownVpns(ProcessId pid, const std::vector<Vpn> &vpns)
{
    for (Vpn vpn : vpns) {
        for (auto &l1 : l1_tlbs_)
            l1->invalidate(pid, vpn);
        // The shared-L2 hypothetical's TLB is host-owned; the migrator
        // invalidates it host-side when it launches the broadcast.
        if (owned_l2_)
            owned_l2_->tlb().invalidate(pid, vpn);
    }
}

std::uint64_t
Chiplet::shootdownAsid(ProcessId pid)
{
    std::uint64_t removed = 0;
    for (auto &l1 : l1_tlbs_)
        removed += l1->invalidateAsid(pid);
    // The shared-L2 hypothetical's TLB is host-owned; its shootdown
    // would have to travel the service links (the scenario engine
    // refuses that configuration instead).
    if (owned_l2_)
        removed += owned_l2_->tlb().invalidateAsid(pid);
    return removed;
}

} // namespace barre
