#include "gpu/fbarre_service.hh"

#include <algorithm>

#include "sim/invariant.hh"
#include "sim/logging.hh"

namespace barre
{

FBarreService::FBarreService(EventQueue &eq, std::string name,
                             const FBarreParams &params,
                             std::uint32_t chiplets, Interconnect &noc,
                             const MemoryMap &map,
                             TranslationService &fallback)
    : SimObject(eq, std::move(name)), params_(params),
      chiplets_(chiplets), noc_(noc), map_(map), fallback_(fallback),
      l2_tlbs_(chiplets, nullptr), waiting_(chiplets)
{
    for (std::uint32_t c = 0; c < chiplets; ++c) {
        engines_.push_back(std::make_unique<FilterEngine>(
            c, chiplets, params.filter));
        pec_buffers_.push_back(
            std::make_unique<PecBuffer>(params.pec_buffer_entries));
    }
}

void
FBarreService::attachL2Tlb(ChipletId chiplet, Tlb *tlb)
{
    barre_assert(chiplet < chiplets_, "chiplet out of range");
    l2_tlbs_[chiplet] = tlb;
}

std::vector<Vpn>
FBarreService::candidateVpns(const PecEntry &entry, Vpn vpn) const
{
    std::vector<Vpn> out;
    const auto gran = static_cast<std::int64_t>(entry.gran);
    std::uint32_t w = std::min<std::uint32_t>(
        std::max<std::uint32_t>(params_.merge_width, 1), entry.gran);
    std::uint32_t o = entry.offsetOf(vpn);
    std::uint32_t ob = (o / w) * w;
    std::uint32_t inter = entry.interOrderOf(vpn);

    for (std::uint32_t k = 0; k < entry.num_gpus; ++k) {
        for (std::uint32_t i = 0; i < w && ob + i < entry.gran; ++i) {
            std::int64_t v =
                static_cast<std::int64_t>(vpn) +
                gran * (static_cast<std::int64_t>(k) - inter) +
                (static_cast<std::int64_t>(ob) + i - o);
            if (v < static_cast<std::int64_t>(entry.start_vpn) ||
                v > static_cast<std::int64_t>(entry.end_vpn)) {
                continue;
            }
            auto cand = static_cast<Vpn>(v);
            if (cand != vpn)
                out.push_back(cand);
        }
    }
    return out;
}

std::optional<AtsResponse>
FBarreService::tryCalcAt(ChipletId chiplet, ProcessId pid, Vpn vpn,
                         bool allow_exact, Cycles &latency)
{
    // Hardware checks the candidate set against the LCF in parallel
    // and visits the TLB once (Example 5); charge one LCF cycle, one
    // TLB visit and one calculation regardless of candidate count.
    latency = params_.lcf_latency;
    bool visited_tlb = false;
    Tlb *tlb = l2_tlbs_[chiplet];
    barre_assert(tlb != nullptr, "chiplet %u L2 TLB not attached",
                 chiplet);

    // A peer may hold the exact VPN (Fig 12 would find it via the RCF's
    // exact-VPN update); serve it directly like a remote TLB hit.
    if (allow_exact) {
        latency += params_.tlb_peek_latency;
        visited_tlb = true;
        if (auto te = tlb->peek(pid, vpn)) {
            AtsResponse resp;
            resp.pid = pid;
            resp.vpn = vpn;
            resp.pfn = te->pfn;
            resp.coal = te->coal;
            resp.calculated = false;
            return resp;
        }
    }

    const PecEntry *entry = pec_buffers_[chiplet]->find(pid, vpn);
    if (!entry)
        return std::nullopt;

    for (Vpn cand : candidateVpns(*entry, vpn)) {
        if (!engines_[chiplet]->lcfContains(pid, cand))
            continue;
        ++lcf_positives_;
        if (!visited_tlb) {
            latency += params_.tlb_peek_latency;
            visited_tlb = true;
        }
        auto te = tlb->peek(pid, cand);
        if (!te || !te->coal.coalesced())
            continue; // LCF false positive (or stale)
        ++lcf_true_;
        auto calc = pec::calcPending(*entry, cand, te->pfn, te->coal,
                                     vpn, map_);
        if (!calc)
            continue; // candidate not actually in the same group
        latency += params_.calc_latency;
        AtsResponse resp;
        resp.pid = pid;
        resp.vpn = vpn;
        resp.pfn = calc->pfn;
        resp.coal = calc->coal;
        resp.has_pec = true;
        resp.pec = *entry;
        resp.calculated = true;
        return resp;
    }
    return std::nullopt;
}

void
FBarreService::translate(ProcessId pid, Vpn vpn, ChipletId src,
                         Iommu::ResponseHandler done)
{
    if (shared_bypass_) {
        // May run host-side (the shared block drives misses from
        // there); touches no chiplet-owned filter or buffer.
        ++fallbacks_;
        fallback_.translate(pid, vpn, src, std::move(done));
        return;
    }

    // Step 1: local coalesced calculation.
    Cycles local_lat = 0;
    if (auto local = tryCalcAt(src, pid, vpn, false, local_lat)) {
        ++local_hits_;
        const std::uint32_t slot =
            waiting_[src].acquire(Waiting{std::move(done), *local});
        after(local_lat, inlineOnly([this, src, slot] {
                  Waiting w = waiting_[src].release(slot);
                  w.done(w.resp);
              }));
        return;
    }

    // Step 2: predicted peer calculation.
    if (params_.peer_sharing) {
        if (auto peer = engines_[src]->predictSharer(pid, vpn)) {
            ++remote_probes_;
            ChipletId p = *peer;
            // The probe runs in p's domain and carries the request by
            // value; the completion waits here for the reply or NACK.
            const std::uint32_t slot =
                waiting_[src].acquire(Waiting{std::move(done)});
            auto at_peer = inlineOnly([this, pid, vpn, src, p, slot] {
                Cycles peer_lat = 0;
                auto resp = tryCalcAt(p, pid, vpn, true, peer_lat);
                if (resp) {
                    ++remote_hits_;
                    // The response crosses back by value, like an ATS
                    // response: too large for the inline buffer.
                    auto reply = [this, src, slot, r = std::move(*resp)] {
                        waiting_[src].release(slot).done(r);
                    };
                    if (params_.oracle_sharing) {
                        // Fixed-latency hop back to the requester; runs
                        // under src's tag so the continuation fills
                        // src's TLBs in its own context.
                        eventQueue().scheduleCross(
                            chipletTag(src),
                            curTick() + peer_lat + params_.oracle_latency,
                            std::move(reply));
                    } else {
                        after(peer_lat, [this, p, src,
                                         reply = std::move(reply)]() mutable {
                            noc_.send(p, src, params_.reply_bytes,
                                      std::move(reply));
                        });
                    }
                    return;
                }
                // Misprediction: NACK, then the conventional path.
                auto fall = inlineOnly([this, pid, vpn, src, slot] {
                    ++fallbacks_;
                    fallback_.translate(pid, vpn, src,
                                        waiting_[src].release(slot).done);
                });
                if (params_.oracle_sharing) {
                    eventQueue().scheduleCross(
                        chipletTag(src),
                        curTick() + peer_lat + params_.oracle_latency,
                        fall);
                } else {
                    after(peer_lat, inlineOnly([this, p, src, fall] {
                              noc_.send(p, src, params_.nack_bytes, fall);
                          }));
                }
            });
            if (params_.oracle_sharing) {
                // The oracle models a fixed-latency query with no NoC
                // resource usage, but the peek still executes the
                // peer's LCF/PEC/TLB — deliver it under the peer's tag
                // like a message would. local_lat >= lcf_latency >= 1
                // keeps the arrival past any oracle-bounded lookahead.
                eventQueue().scheduleCross(
                    chipletTag(p),
                    curTick() + local_lat + params_.oracle_latency,
                    std::move(at_peer));
            } else {
                noc_.send(src, p, params_.probe_bytes, std::move(at_peer));
            }
            return;
        }
    }

    // Step 3: conventional path.
    ++fallbacks_;
    fallback_.translate(pid, vpn, src, std::move(done));
}

void
FBarreService::onResponse(ChipletId chiplet, const AtsResponse &resp)
{
    if (shared_bypass_)
        return; // responses complete host-side; PEC buffers are idle
    if (resp.has_pec)
        pec_buffers_[chiplet]->insert(resp.pec);
}

void
FBarreService::sendFilterUpdates(ChipletId from, bool add, ProcessId pid,
                                 std::vector<Vpn> vpns)
{
    if (vpns.empty())
        return;
    // Every peer applies the same list: build it once and share it.
    auto shared = std::make_shared<const std::vector<Vpn>>(std::move(vpns));
    // One message carries all the 43-bit updates of this TLB event.
    auto bytes = static_cast<std::uint64_t>(params_.filter_update_bytes) *
                 ((shared->size() + 7) / 8 * 8) / 8;
    bytes = std::max<std::uint64_t>(bytes, params_.filter_update_bytes);
    for (ChipletId to = 0; to < chiplets_; ++to) {
        if (to == from)
            continue;
        filter_updates_ += shared->size();
        auto apply = [this, from, to, add, pid, vpns = shared]() {
            for (Vpn vpn : *vpns) {
                if (add)
                    engines_[to]->rcfInsert(from, pid, vpn);
                else
                    engines_[to]->rcfErase(from, pid, vpn);
            }
            // Applied updates are the only writers of RCF state, so
            // right after a batch is the natural point to check the
            // filters still back every membership fact the owner was
            // told.
            BARRE_AUDIT_EVERY(rcf_audit_tick_, kAuditPeriod,
                              engines_[to]->auditRcfMembership());
        };
        if (params_.oracle_sharing) {
            // Apply under the receiving chiplet's tag: the RCF being
            // updated is `to`'s state. The bare oracle_latency delay
            // is the tightest cross-domain arrival this mode produces,
            // so the partition's lookahead is capped at oracle_latency
            // when oracle sharing is on (System::setupPartition).
            eventQueue().scheduleCross(chipletTag(to),
                                       curTick() + params_.oracle_latency,
                                       std::move(apply));
        } else {
            noc_.send(from, to, bytes, std::move(apply));
        }
    }
}

void
FBarreService::onL2Insert(ChipletId chiplet, const TlbEntry &entry)
{
    if (shared_bypass_)
        return;
    engines_[chiplet]->lcfInsert(entry.pid, entry.vpn);
    // The insert just restored TLB ⊆ LCF on this chiplet (the evict
    // listener already removed the victim from both); a safe point to
    // audit coherence. Not valid inside onL2Evict: Tlb::insert fires
    // the evict listener while the victim entry is still installed.
    BARRE_AUDIT_EVERY(audit_tick_, kAuditPeriod,
                      auditFilterCoherence(chiplet));
    if (!entry.coal.coalesced() || !params_.peer_sharing)
        return;
    const PecEntry *pec = pec_buffers_[chiplet]->find(entry.pid,
                                                      entry.vpn);
    if (!pec)
        return;
    sendFilterUpdates(chiplet, true, entry.pid,
                      pec::interMembers(*pec, entry.vpn, entry.coal));
}

void
FBarreService::auditFilterCoherence(ChipletId chiplet) const
{
    const Tlb *tlb = l2_tlbs_[chiplet];
    if (!tlb || shared_bypass_)
        return;
    const FilterEngine &eng = *engines_[chiplet];
    if (eng.lcfLossyInserts() > 0)
        return; // best-effort territory: false negatives are by design
    tlb->forEachValid([&](const TlbEntry &te) {
        barre_assert(eng.lcfPeek(te.pid, te.vpn),
                     "chiplet %u: L2 TLB entry (pid %u, vpn %llx) is "
                     "not visible in the local coalescing filter",
                     chiplet, te.pid, (unsigned long long)te.vpn);
    });
}

void
FBarreService::auditFilterCoherence() const
{
    for (std::uint32_t c = 0; c < chiplets_; ++c)
        auditFilterCoherence(static_cast<ChipletId>(c));
}

void
FBarreService::onL2Evict(ChipletId chiplet, const TlbEntry &entry)
{
    if (shared_bypass_)
        return;
    engines_[chiplet]->lcfErase(entry.pid, entry.vpn);
    if (!entry.coal.coalesced() || !params_.peer_sharing)
        return;
    const PecEntry *pec = pec_buffers_[chiplet]->find(entry.pid,
                                                      entry.vpn);
    if (!pec)
        return;
    sendFilterUpdates(chiplet, false, entry.pid,
                      pec::interMembers(*pec, entry.vpn, entry.coal));
}

void
FBarreService::onShootdown()
{
    if (shared_bypass_)
        return; // the filters were never populated
    for (auto &e : engines_)
        e->reset();
}

std::uint64_t
FBarreService::perChipletStorageBits() const
{
    if (engines_.empty())
        return 0;
    return engines_.front()->storageBits() +
           pec_buffers_.front()->storageBits();
}

} // namespace barre
