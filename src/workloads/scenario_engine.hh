/**
 * @file
 * The multi-tenant scenario engine: deterministic launch/exit churn.
 *
 * A dynamic scenario (ScenarioSpec with non-zero arrivals or a churn
 * clause) is driven by this engine instead of the static preload path.
 * The whole lifecycle is modeled as a host<->chiplet message protocol
 * so partitioned (conservative-PDES) runs stay bitwise identical to
 * serial ones:
 *
 *   arrival (host event)
 *     -> driver allocation + CTA planning on the host (LaunchHook)
 *     -> one kernel-launch packet per participating chiplet over PCIe
 *        downstream; delivery starts the planned CU jobs on the
 *        chiplet's own context (StartJobHook)
 *   last job of a chiplet's share drains
 *     -> share-done packet upstream
 *   last share-done (host)
 *     -> driver/IOMMU teardown (TeardownHook: unmap, free frames,
 *        detach page table) and an ASID-shootdown broadcast to every
 *        chiplet over PCIe
 *   each chiplet invalidates its own TLBs (ShootdownHook) and acks
 *   last ack (host) -> the tenant is retired.
 *
 * Per-chiplet state (outstanding job counts, per-tenant translation-
 * latency histograms) lives in cache-line-aligned shards owned by the
 * chiplet tags, mirroring the AcudMigrator structure; the tenant table
 * and round bookkeeping are host-owned.
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "gpu/cu.hh"
#include "noc/pcie.hh"
#include "sim/domain_guard.hh"
#include "sim/inline_fn.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"
#include "workloads/workload.hh"

namespace barre
{

struct ScenarioEngineParams
{
    /** One kernel-launch packet going down to a chiplet. */
    std::uint32_t launch_bytes = 64;
    /** One share-done notification going back up. */
    std::uint32_t done_bytes = 8;
    /** One ASID-shootdown broadcast going down to a chiplet. */
    std::uint32_t shootdown_bytes = 32;
    /** One shootdown ack going back up. */
    std::uint32_t ack_bytes = 8;

    bool operator==(const ScenarioEngineParams &) const = default;
};

// domain-owner:shared — the tenant table and arrival/retire rounds are
// host-owned; per-chiplet shards hold the outstanding-job counts and
// latency histograms, and every chiplet<->host exchange (launch,
// share-done, shootdown, ack) rides PCIe.
class ScenarioEngine : public SimObject, public DomainOwned
{
  public:
    /** The CU jobs one chiplet runs for one tenant. */
    struct CuJob
    {
        std::uint32_t cu = 0;
        std::vector<AccessDesc> accesses;
    };
    /** Per-chiplet job plan for one tenant (index = chiplet). */
    using LaunchPlan = std::vector<std::vector<CuJob>>;

    /**
     * Host-side launch: allocate the tenant's buffers and plan its CTA
     * placement. Runs on the host context at the arrival tick.
     */
    using LaunchHook = InlineFn<LaunchPlan(const AppParams &, ProcessId)>;
    /** Chiplet-side: start one planned CU job (Cu::launchJob). */
    using StartJobHook = InlineFn<void(
        ChipletId, std::uint32_t, std::vector<AccessDesc>,
        EventQueue::Callback)>;
    /** Chiplet-side: drop the tenant's TLB state (shootdownAsid). */
    using ShootdownHook = InlineFn<void(ChipletId, ProcessId)>;
    /** Host-side: driver + IOMMU teardown (processExit, detach). */
    using TeardownHook = InlineFn<void(ProcessId)>;

    /** Full lifecycle record of one tenant. */
    struct TenantState
    {
        AppParams app; ///< CTA counts already scaled for this tenant
        Tick arrival = 0;   ///< scheduled launch tick
        ProcessId pid = 0;
        Tick launched = 0;  ///< actual launch tick (== arrival)
        Tick finished = 0;  ///< last share-done landed at the host
        Tick retired = 0;   ///< last shootdown ack landed at the host
        std::uint64_t accesses = 0;
        std::uint32_t shares_left = 0;
        std::uint32_t acks_left = 0;
        bool done = false;
    };

    ScenarioEngine(EventQueue &eq, std::string name, Pcie &pcie,
                   std::uint32_t chiplets,
                   const ScenarioEngineParams &params = {});

    void
    setHooks(LaunchHook launch, StartJobHook start,
             ShootdownHook shoot, TeardownHook teardown)
    {
        launch_ = std::move(launch);
        start_ = std::move(start);
        shoot_ = std::move(shoot);
        teardown_ = std::move(teardown);
    }

    /** Register one tenant (before begin()); pids are 1-based. */
    void addTenant(AppParams app, Tick arrival);

    /** Schedule every arrival; call under the host tag at run start. */
    void begin();

    /** Record one translation latency sample on chiplet @p c. */
    void recordLatency(ChipletId c, ProcessId pid, Cycles lat);

    /** Bind host round state + per-chiplet shards to their tags. */
    void bindDomains(DomainGuard *guard);

    bool allRetired() const { return retired_ == tenants_.size(); }
    Tick lastRetireTick() const { return last_retire_; }
    const std::vector<TenantState> &tenantStates() const
    {
        return tenants_;
    }

    /**
     * Post-run: the tenant's translation-latency histogram merged
     * across chiplets (deterministic — integer bucket addition).
     */
    LogHistogram mergedLatency(ProcessId pid) const;

    void
    regStats(StatRegistry &stats) const
    {
        stats.add(name() + ".launches", launches_);
        stats.add(name() + ".retires", retires_);
    }

  private:
    /**
     * One chiplet's shard: outstanding jobs and latency samples for
     * the tenants currently running on it. Only touched from its
     * owner's context (launches and shootdowns arrive as PCIe
     * messages).
     */
    struct alignas(64) Shard : DomainOwned
    {
        std::map<ProcessId, std::uint32_t> outstanding;
        std::map<ProcessId, LogHistogram> latency;
    };

    void onArrival(std::size_t idx);
    /** Chiplet context: one of the tenant's CU jobs drained. */
    void onJobDone(ChipletId c, std::size_t idx);
    /** Host context: one chiplet finished its share. */
    void onShareDone(std::size_t idx);
    /** Host context: one chiplet acked the ASID shootdown. */
    void onAck(std::size_t idx);

    Pcie &pcie_;
    ScenarioEngineParams params_;
    LaunchHook launch_;
    StartJobHook start_;
    ShootdownHook shoot_;
    TeardownHook teardown_;

    std::vector<Shard> shards_;

    /// @name Host-owned tenant table
    /// @{
    std::vector<TenantState> tenants_;
    std::size_t retired_ = 0;
    Tick last_retire_ = 0;
    bool begun_ = false;
    /// @}

    Counter launches_;
    Counter retires_;
};

} // namespace barre
