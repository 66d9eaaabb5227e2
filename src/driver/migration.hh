/**
 * @file
 * ACUD-style counter-based page migration (paper §VII-G, Griffin [7]),
 * modeled as an asynchronous shootdown protocol.
 *
 * Each chiplet owns a shard of the migration engine: its own per-page
 * remote-access counters and a local freeze window. When a shard's
 * counter crosses the threshold (16 in the paper) the chiplet sends a
 * migration request upstream over PCIe. The host-side driver logic
 * performs the PTE surgery (GpuDriver::migratePage) and broadcasts a
 * TLB-shootdown message to every chiplet; each chiplet invalidates its
 * own stale translations, freezes issue for the copy window, pushes
 * the page copy onto the interconnect if it is the old owner, and acks
 * back upstream. The round completes — and the next queued request may
 * start — once every ack has arrived, so shootdown traffic and latency
 * are charged on the PCIe and NoC links instead of happening in zero
 * cycles.
 *
 * Under Barre Chord a migrated page is simply excluded from its
 * coalescing group (driver handles the PTE surgery); the caller-provided
 * invalidate hook flushes stale TLB entries and filter state.
 */

#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "driver/gpu_driver.hh"
#include "mem/types.hh"
#include "noc/interconnect.hh"
#include "noc/pcie.hh"
#include "sim/domain_guard.hh"
#include "sim/inline_fn.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace barre
{

struct MigrationParams
{
    bool enabled = false;
    /** Remote-access count that triggers migration (ACUD uses 16). */
    std::uint32_t threshold = 16;
    /** Copy bandwidth over the interconnect, bytes per cycle. */
    double copy_bytes_per_cycle = 768.0;
    /** Fixed shootdown/bookkeeping cost per migration, cycles. */
    Cycles shootdown_cost = 300;
    /** Page size in bytes (matches the system page size). */
    std::uint64_t page_bytes = 4096;
    /**
     * Hysteresis: a page that just migrated is pinned for this many
     * cycles before it may migrate again (bounds ping-pong storms).
     */
    Cycles cooldown = 10000;
    /** One migration request going up to the driver. */
    std::uint32_t req_bytes = 16;
    /** One shootdown broadcast message going down to a chiplet. */
    std::uint32_t shootdown_bytes = 32;
    /** One shootdown ack going back up. */
    std::uint32_t ack_bytes = 8;

    bool operator==(const MigrationParams &) const = default;
};

// domain-owner:shared — per-chiplet counter shards feed the data path
// locally; the driver-side round state is host-owned and every
// chiplet<->host exchange (request, shootdown, ack) rides PCIe.
class AcudMigrator : public SimObject, public DomainOwned
{
  public:
    /** Shoot down chiplet @p c 's stale translations for (pid, vpns). */
    using InvalidateHook =
        InlineFn<void(ChipletId, ProcessId, const std::vector<Vpn> &)>;
    /** Host-side shootdown (e.g. the package-shared L2 TLB). */
    using HostInvalidateHook =
        InlineFn<void(ProcessId, const std::vector<Vpn> &)>;

    AcudMigrator(EventQueue &eq, std::string name, GpuDriver &driver,
                 Pcie &pcie, std::uint32_t chiplets,
                 const MigrationParams &params)
        : SimObject(eq, std::move(name)), driver_(driver), pcie_(pcie),
          params_(params), shards_(chiplets)
    {}

    void setInvalidateHook(InvalidateHook h) { invalidate_ = std::move(h); }

    /**
     * Invoked in host context when a round's shootdown broadcast
     * launches, so host-owned TLB structures (the package-shared L2
     * TLB) drop their stale entries without a chiplet reaching across
     * the domain boundary.
     */
    void
    setHostInvalidateHook(HostInvalidateHook h)
    {
        host_invalidate_ = std::move(h);
    }

    /**
     * When wired, page copies are injected into the interconnect so
     * they contend with regular remote traffic (a 2 MB super-page
     * migration occupies the source link for ~2.7k cycles).
     */
    void setInterconnect(Interconnect *noc) { noc_ = noc; }

    /** Bind the host round state + each chiplet's shard to its tag. */
    void
    bindDomains(DomainGuard *guard)
    {
        bindDomain(guard, kHostTag, "migrator");
        for (std::size_t c = 0; c < shards_.size(); ++c) {
            shards_[c].bindDomain(
                guard, chipletTag(static_cast<ChipletId>(c)),
                "migrator.chip" + std::to_string(c));
        }
    }

    /**
     * Record one access on @p accessor 's shard and maybe launch a
     * migration request.
     *
     * @param now       current tick
     * @param pid,vpn   accessed page
     * @param accessor  chiplet issuing the access
     * @param owner     chiplet currently holding the page
     * @return extra stall cycles the access must absorb (0 normally;
     *         the remainder of the local freeze window while a
     *         shootdown round covers this chiplet).
     */
    Cycles recordAccess(Tick now, ProcessId pid, Vpn vpn,
                        ChipletId accessor, ChipletId owner);

    /// @name Statistics
    /// @{
    void
    regStats(StatRegistry &stats) const
    {
        stats.add("migration.count", migrations_);
        stats.add("migration.bytes", bytes_);
        // Requests sent upstream, denied ones included.
        stats.add("migration.requests", [this] {
            std::uint64_t n = 0;
            for (const Shard &sh : shards_)
                n += sh.requests.value();
            return n;
        });
        stats.add("migration.shootdown_rounds", rounds_); // == count
        stats.add("migration.shootdown_acks", acks_); // rounds x chiplets
        stats.addMean("migration.avg_round_cycles", round_latency_);
    }

    /** Request->all-acks round-trip, cycles. */
    const Accumulator &roundLatency() const { return round_latency_; }
    /** Until when chiplet @p c 's issue is frozen (tests/debug). */
    Tick frozenUntil(ChipletId c) const { return shards_[c].freeze_until; }
    /// @}

  private:
    /**
     * One chiplet's shard: its remote-access counters and the local
     * mirror of the package quiesce. Only touched from its owner's
     * context (shootdowns and denials arrive as PCIe messages).
     */
    struct alignas(64) Shard : DomainOwned
    {
        std::unordered_map<std::uint64_t, std::uint32_t> counts;
        /** Pages with an in-flight migration request from this shard. */
        std::unordered_set<std::uint64_t> requested;
        Tick freeze_until = 0;
        Counter requests;
    };

    struct PageState
    {
        Tick pinned_until = 0;
    };

    struct MigReq
    {
        ProcessId pid;
        Vpn vpn;
        ChipletId dest;
    };

    static std::uint64_t
    pageKey(ProcessId pid, Vpn vpn)
    {
        return (std::uint64_t{pid} << 52) ^ vpn;
    }

    /** Host side: start a round now or queue behind the current one. */
    void handleMigReq(const MigReq &req);
    void startRound(const MigReq &req);
    /** Tell the requester its request was dropped (pinned/unmapped). */
    void deny(const MigReq &req);
    /** Chiplet side: invalidate, freeze, copy (old owner only), ack. */
    void applyShootdown(ChipletId c, ProcessId pid, ChipletId dest,
                        ChipletId old_owner,
                        const std::vector<Vpn> &stale, Cycles total,
                        std::uint64_t key);
    void onAck();

    GpuDriver &driver_;
    Pcie &pcie_;
    MigrationParams params_;
    InvalidateHook invalidate_;
    HostInvalidateHook host_invalidate_;
    Interconnect *noc_ = nullptr;

    std::vector<Shard> shards_;

    /// @name Host-owned round state
    /// @{
    std::unordered_map<std::uint64_t, PageState> pages_;
    std::deque<MigReq> queue_;
    bool round_active_ = false;
    std::uint64_t round_key_ = 0;
    Tick round_start_ = 0;
    std::uint32_t round_acks_ = 0;
    Counter migrations_;
    Counter bytes_;
    Counter rounds_;
    Counter acks_;
    Accumulator round_latency_;
    /// @}
};

} // namespace barre
