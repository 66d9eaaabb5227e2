/**
 * @file
 * Unit tests for the ACUD counter-based migration engine (§VII-G),
 * now an asynchronous request/shootdown/ack protocol over PCIe.
 */

#include <gtest/gtest.h>

#include "driver/migration.hh"
#include "sim/domain.hh"

#include "stats_of.hh"

using namespace barre;

namespace
{

struct Rig
{
    EventQueue eq;
    MemoryMap map{4, 0x1000};
    GpuDriver drv;
    Pcie pcie;
    MigrationParams params;

    explicit Rig(std::uint32_t threshold = 4)
        : drv(map,
              DriverParams{MappingPolicyKind::lasp, true, 1, 0.0, 7}),
          pcie(eq, "pcie", PcieParams{})
    {
        params.enabled = true;
        params.threshold = threshold;
        params.copy_bytes_per_cycle = 1024.0;
        params.shootdown_cost = 100;
        params.page_bytes = 4096;
    }

    AcudMigrator
    make()
    {
        return AcudMigrator(eq, "mig", drv, pcie, 4, params);
    }
};

} // namespace

TEST(AcudMigrator, DisabledDoesNothing)
{
    Rig rig;
    rig.params.enabled = false;
    auto mig = rig.make();
    auto a = rig.drv.gpuMalloc(1, 12);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(mig.recordAccess(i, 1, a.start_vpn, 3, 0), 0u);
    rig.eq.run();
    EXPECT_EQ(statsOf(mig).count("migration.count"), 0u);
    EXPECT_EQ(statsOf(mig).count("migration.requests"), 0u);
}

TEST(AcudMigrator, LocalAccessesNeverTrigger)
{
    Rig rig(2);
    auto mig = rig.make();
    auto a = rig.drv.gpuMalloc(1, 12);
    for (int i = 0; i < 100; ++i)
        mig.recordAccess(i, 1, a.start_vpn, 0, 0);
    rig.eq.run();
    EXPECT_EQ(statsOf(mig).count("migration.count"), 0u);
}

TEST(AcudMigrator, RemoteAccessesTriggerAtThreshold)
{
    Rig rig(4);
    auto mig = rig.make();
    auto a = rig.drv.gpuMalloc(1, 12);
    Vpn v = a.start_vpn; // on chiplet 0
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(mig.recordAccess(i, 1, v, 2, 0), 0u);
    EXPECT_EQ(statsOf(mig).count("migration.count"), 0u);
    // Crossing the threshold launches a request; the access itself is
    // not stalled — the cost lands when the shootdown broadcast
    // returns to this chiplet.
    EXPECT_EQ(mig.recordAccess(10, 1, v, 2, 0), 0u);
    // The request is still in flight.
    EXPECT_EQ(statsOf(mig).count("migration.count"), 0u);
    rig.eq.run();
    EXPECT_EQ(statsOf(mig).count("migration.count"), 1u);
    EXPECT_EQ(rig.map.chipletOf(rig.drv.pageTable(1).walk(v)->pfn()),
              2u);
    EXPECT_EQ(statsOf(mig).count("migration.bytes"), 4096u);
    EXPECT_EQ(statsOf(mig).count("migration.requests"), 1u);
}

TEST(AcudMigrator, InvalidateHookReceivesStaleVpnsOnEveryChiplet)
{
    Rig rig(1);
    auto mig = rig.make();
    auto a = rig.drv.gpuMalloc(1, 12);
    std::vector<std::vector<Vpn>> stale(4);
    mig.setInvalidateHook([&](ChipletId c, ProcessId,
                              const std::vector<Vpn> &vpns) {
        stale[c] = vpns;
    });
    mig.recordAccess(0, 1, a.start_vpn, 1, 0);
    rig.eq.run();
    // The shootdown broadcast reaches every chiplet; the whole former
    // group {s, s+3, s+6, s+9} is stale on each of them.
    for (std::uint32_t c = 0; c < 4; ++c)
        EXPECT_EQ(stale[c].size(), 4u) << "chiplet " << c;
}

TEST(AcudMigrator, AccessesDuringCopyStall)
{
    Rig rig(1);
    auto mig = rig.make();
    auto a = rig.drv.gpuMalloc(1, 12);
    EXPECT_EQ(mig.recordAccess(0, 1, a.start_vpn, 1, 0), 0u);
    rig.eq.run();
    EXPECT_EQ(statsOf(mig).count("migration.count"), 1u);
    // Every chiplet froze for copy + shootdown_cost once its copy of
    // the broadcast arrived.
    Tick frozen = mig.frozenUntil(1);
    EXPECT_GT(frozen, 0u);
    // An access 10 cycles before the freeze lifts sees the remainder.
    EXPECT_EQ(mig.recordAccess(frozen - 10, 1, a.start_vpn, 1, 1), 10u);
    // Long after the copy, no stall remains.
    EXPECT_EQ(mig.recordAccess(frozen + 1'000'000, 1, a.start_vpn, 1, 1),
              0u);
}

TEST(AcudMigrator, CountersResetAfterMigration)
{
    Rig rig(3);
    auto mig = rig.make();
    auto a = rig.drv.gpuMalloc(1, 12);
    Vpn v = a.start_vpn;
    for (int i = 0; i < 3; ++i)
        mig.recordAccess(i, 1, v, 1, 0);
    rig.eq.run();
    EXPECT_EQ(statsOf(mig).count("migration.count"), 1u);
    // Two more remote accesses from chiplet 2 are below threshold (the
    // shootdown wiped every shard's counter for the page).
    mig.recordAccess(1'000'000, 1, v, 2, 1);
    mig.recordAccess(1'000'001, 1, v, 2, 1);
    rig.eq.run();
    EXPECT_EQ(statsOf(mig).count("migration.count"), 1u);
}

TEST(AcudMigrator, RequestsDedupWhileInFlight)
{
    Rig rig(1);
    auto mig = rig.make();
    auto a = rig.drv.gpuMalloc(1, 12);
    // Ten threshold-crossing accesses before the driver answers: only
    // the first sends a request; the rest see it in flight.
    for (int i = 0; i < 10; ++i)
        mig.recordAccess(i, 1, a.start_vpn, 1, 0);
    rig.eq.run();
    EXPECT_EQ(statsOf(mig).count("migration.requests"), 1u);
    EXPECT_EQ(statsOf(mig).count("migration.count"), 1u);
}

TEST(AcudMigrator, ShootdownRoundCollectsOneAckPerChiplet)
{
    Rig rig(1);
    auto mig = rig.make();
    auto a = rig.drv.gpuMalloc(1, 12);
    mig.recordAccess(0, 1, a.start_vpn, 1, 0);
    rig.eq.run();
    EXPECT_EQ(statsOf(mig).count("migration.shootdown_rounds"), 1u);
    EXPECT_EQ(statsOf(mig).count("migration.shootdown_acks"), 4u);
    ASSERT_EQ(mig.roundLatency().count(), 1u);
    // The round is bounded below by the PCIe round trip: request up,
    // shootdown down, ack up.
    EXPECT_GT(mig.roundLatency().mean(), 2.0 * PcieParams{}.latency);
}

TEST(AcudMigrator, QueuedRequestsRunSequentially)
{
    Rig rig(1);
    rig.params.cooldown = 0;
    auto mig = rig.make();
    auto a = rig.drv.gpuMalloc(1, 24);
    Vpn v0 = a.start_vpn;      // on chiplet 0
    Vpn v1 = a.start_vpn + 12; // on chiplet 2
    mig.recordAccess(0, 1, v0, 1, 0);
    mig.recordAccess(0, 1, v1, 3, 2);
    rig.eq.run();
    EXPECT_EQ(statsOf(mig).count("migration.count"), 2u);
    EXPECT_EQ(statsOf(mig).count("migration.shootdown_rounds"), 2u);
    EXPECT_EQ(statsOf(mig).count("migration.shootdown_acks"), 8u);
}

TEST(AcudMigrator, CooldownDeniesImmediateReturn)
{
    Rig rig(2);
    auto mig = rig.make();
    auto a = rig.drv.gpuMalloc(1, 12);
    Vpn v = a.start_vpn;
    mig.recordAccess(0, 1, v, 1, 0);
    mig.recordAccess(1, 1, v, 1, 0);
    rig.eq.run();
    EXPECT_EQ(statsOf(mig).count("migration.count"), 1u);
    // The page just moved; pulling it back inside the cooldown window
    // is denied (the request still counts, the round never starts).
    Tick t = rig.eq.now();
    mig.recordAccess(t, 1, v, 0, 1);
    mig.recordAccess(t + 1, 1, v, 0, 1);
    rig.eq.run();
    EXPECT_EQ(statsOf(mig).count("migration.requests"), 2u);
    EXPECT_EQ(statsOf(mig).count("migration.count"), 1u);
}

TEST(AcudMigrator, PingPongPossibleWithoutCooldown)
{
    Rig rig(2);
    rig.params.cooldown = 0;
    auto mig = rig.make();
    auto a = rig.drv.gpuMalloc(1, 12);
    Vpn v = a.start_vpn;
    // Chiplet 1 pulls it, then chiplet 0 pulls it back.
    mig.recordAccess(0, 1, v, 1, 0);
    mig.recordAccess(1, 1, v, 1, 0);
    rig.eq.run();
    EXPECT_EQ(statsOf(mig).count("migration.count"), 1u);
    Tick t = rig.eq.now();
    mig.recordAccess(t, 1, v, 0, 1);
    mig.recordAccess(t + 1, 1, v, 0, 1);
    rig.eq.run();
    EXPECT_EQ(statsOf(mig).count("migration.count"), 2u);
}
