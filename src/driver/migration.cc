#include "driver/migration.hh"

namespace barre
{

Cycles
AcudMigrator::recordAccess(Tick now, ProcessId pid, Vpn vpn,
                           ChipletId accessor, ChipletId owner)
{
    if (!params_.enabled)
        return 0;
    Shard &sh = shards_[accessor];
    sh.domainCheck("recordAccess");

    // Stall behind the local mirror of the package quiesce: the freeze
    // starts when the shootdown broadcast lands here, not at the (then
    // unknowable) remote trigger instant.
    Cycles stall = sh.freeze_until > now ? sh.freeze_until - now : 0;

    if (accessor == owner)
        return stall;

    const std::uint64_t key = pageKey(pid, vpn);
    if (sh.requested.count(key) != 0)
        return stall; // request already in flight
    if (++sh.counts[key] < params_.threshold)
        return stall;

    sh.counts.erase(key);
    sh.requested.insert(key);
    ++sh.requests;
    // Ask the driver to migrate; the access itself proceeds — the cost
    // lands when the shootdown broadcast returns.
    pcie_.toHost(params_.req_bytes, [this, pid, vpn, accessor]() {
        handleMigReq(MigReq{pid, vpn, accessor});
    });
    return stall;
}

void
AcudMigrator::handleMigReq(const MigReq &req)
{
    domainCheck("migrate");
    if (round_active_) {
        // One shootdown round at a time; later requests wait their
        // turn (and may be denied by the cooldown once they run).
        queue_.push_back(req);
        return;
    }
    startRound(req);
}

void
AcudMigrator::startRound(const MigReq &req)
{
    const Tick now = curTick();
    const std::uint64_t key = pageKey(req.pid, req.vpn);
    if (now < pages_[key].pinned_until) {
        deny(req); // hysteresis: recently migrated
        return;
    }
    auto res = driver_.migratePage(req.pid, req.vpn, req.dest);
    if (!res) {
        deny(req);
        return;
    }

    ++migrations_;
    ++rounds_;
    bytes_ += params_.page_bytes;
    auto copy = static_cast<Cycles>(
        static_cast<double>(params_.page_bytes) /
        params_.copy_bytes_per_cycle);
    const Cycles total = copy + params_.shootdown_cost;
    const ChipletId old_owner =
        driver_.memoryMap().chipletOf(res->old_pfn);

    round_active_ = true;
    round_key_ = key;
    round_start_ = now;
    round_acks_ = 0;

    // Host-owned structures (the shared L2 TLB) are shot down right
    // here, at broadcast launch, in the driver's own context.
    if (host_invalidate_)
        host_invalidate_(req.pid, res->stale_vpns);

    // Broadcast the shootdown; the driver proceeds on all-acks.
    for (std::uint32_t c = 0; c < shards_.size(); ++c) {
        pcie_.toDevice(
            chipletTag(static_cast<ChipletId>(c)),
            params_.shootdown_bytes,
            [this, c, pid = req.pid, dest = req.dest, old_owner,
             stale = res->stale_vpns, total, key]() {
                applyShootdown(static_cast<ChipletId>(c), pid, dest,
                               old_owner, stale, total, key);
            });
    }
}

void
AcudMigrator::deny(const MigReq &req)
{
    const std::uint64_t key = pageKey(req.pid, req.vpn);
    pcie_.toDevice(chipletTag(req.dest), params_.ack_bytes,
                   [this, dest = req.dest, key]() {
                       // Cleared so the shard may re-request after
                       // threshold more remote accesses.
                       shards_[dest].requested.erase(key);
                   });
    if (!queue_.empty()) {
        MigReq next = queue_.front();
        queue_.pop_front();
        startRound(next);
    }
}

void
AcudMigrator::applyShootdown(ChipletId c, ProcessId pid, ChipletId dest,
                             ChipletId old_owner,
                             const std::vector<Vpn> &stale, Cycles total,
                             std::uint64_t key)
{
    Shard &sh = shards_[c];
    sh.domainCheck("shootdown");
    if (invalidate_)
        invalidate_(c, pid, stale);
    const Tick now = curTick();
    sh.freeze_until = std::max(sh.freeze_until, now + total);
    sh.counts.erase(key);
    sh.requested.erase(key);
    // The old owner pushes the page to its new home from its own side,
    // contending with regular remote traffic on its egress link.
    if (noc_ != nullptr && c == old_owner && old_owner != dest)
        noc_->send(old_owner, dest, params_.page_bytes, [] {});
    pcie_.toHost(params_.ack_bytes, [this]() { onAck(); });
}

void
AcudMigrator::onAck()
{
    domainCheck("migrate");
    ++acks_;
    if (++round_acks_ < shards_.size())
        return;
    round_latency_.sample(
        static_cast<double>(curTick() - round_start_));
    pages_[round_key_].pinned_until = curTick() + params_.cooldown;
    round_active_ = false;
    if (!queue_.empty()) {
        MigReq next = queue_.front();
        queue_.pop_front();
        startRound(next);
    }
}

} // namespace barre
