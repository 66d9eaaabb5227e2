/**
 * @file
 * Tests for the IOMMU extensions: speculative multicast (§IV-B
 * ablation), timed walks with a page-walk cache, and the demand-paging
 * fault path (§VI).
 */

#include <gtest/gtest.h>

#include "driver/gpu_driver.hh"
#include "iommu/iommu.hh"

#include "stats_of.hh"

using namespace barre;

namespace
{

struct Rig
{
    EventQueue eq;
    MemoryMap map{4, 0x4000};
    Pcie pcie;
    GpuDriver drv;

    explicit Rig(DriverParams dp = DriverParams{MappingPolicyKind::lasp,
                                                true, 1, 0.0, 7})
        : pcie(eq, "pcie", PcieParams{32.0, 150}), drv(map, dp)
    {}
};

} // namespace

TEST(IommuMulticast, PushesWholeGroupToChiplets)
{
    Rig rig;
    IommuParams p;
    p.barre = true;
    p.multicast = true;
    Iommu iommu(rig.eq, "iommu", p, rig.pcie, rig.map);
    auto a = rig.drv.gpuMalloc(1, 12);
    iommu.attachPageTable(rig.drv.pageTable(1));
    for (const auto &e : rig.drv.pecEntries())
        iommu.pecBuffer().insert(e);

    std::vector<std::pair<ChipletId, Vpn>> pushed;
    iommu.setFillSink([&](ChipletId c, const AtsResponse &r) {
        pushed.emplace_back(c, r.vpn);
        EXPECT_EQ(r.pfn, rig.drv.pageTable(1).walk(r.vpn)->pfn());
        EXPECT_TRUE(r.calculated);
    });

    iommu.sendAts(1, a.start_vpn, 0, [](const AtsResponse &) {});
    rig.eq.run();
    // Group {s, s+3, s+6, s+9}: three members are pushed to chiplets
    // 1, 2, 3.
    ASSERT_EQ(pushed.size(), 3u);
    EXPECT_EQ(iommu.multicastPushes(), 3u);
    for (auto [c, vpn] : pushed)
        EXPECT_EQ(c, (vpn - a.start_vpn) / 3);
}

TEST(IommuMulticast, NoSinkMeansNoPushes)
{
    Rig rig;
    IommuParams p;
    p.barre = true;
    p.multicast = true;
    Iommu iommu(rig.eq, "iommu", p, rig.pcie, rig.map);
    auto a = rig.drv.gpuMalloc(1, 12);
    iommu.attachPageTable(rig.drv.pageTable(1));
    for (const auto &e : rig.drv.pecEntries())
        iommu.pecBuffer().insert(e);
    iommu.sendAts(1, a.start_vpn, 0, [](const AtsResponse &) {});
    rig.eq.run();
    EXPECT_EQ(iommu.multicastPushes(), 0u);
}

TEST(IommuTimedWalks, ColdWalkCostsFourAccesses)
{
    Rig rig;
    IommuParams p;
    p.timed_walks = true;
    p.mem_latency_per_level = 100;
    p.pwc_hit_latency = 2;
    Iommu iommu(rig.eq, "iommu", p, rig.pcie, rig.map);
    auto a = rig.drv.gpuMalloc(1, 8);
    iommu.attachPageTable(rig.drv.pageTable(1));

    Tick first = 0, second = 0;
    iommu.sendAts(1, a.start_vpn, 0, [&](const AtsResponse &) {
        first = rig.eq.now();
        iommu.sendAts(1, a.start_vpn + 1, 0, [&](const AtsResponse &) {
            second = rig.eq.now();
        });
    });
    rig.eq.run();
    // Cold: 151 + 4x100 + 151 = 702. Warm (same leaf node prefixes):
    // 151 + 3x2 + 100 + 151 = 408.
    EXPECT_EQ(first, 702u);
    EXPECT_EQ(second - first, 408u);
    EXPECT_EQ(iommu.pwcMisses(), 3u);
    EXPECT_EQ(iommu.pwcHits(), 3u);
}

TEST(IommuDemandPaging, FaultMapsWholeGroupOnce)
{
    DriverParams dp{MappingPolicyKind::lasp, true, 1, 0.0, 7};
    dp.demand_paging = true;
    Rig rig(dp);
    IommuParams p;
    p.barre = true;
    p.fault_latency = 5000;
    Iommu iommu(rig.eq, "iommu", p, rig.pcie, rig.map);
    auto a = rig.drv.gpuMalloc(1, 12);
    iommu.attachPageTable(rig.drv.pageTable(1));
    for (const auto &e : rig.drv.pecEntries())
        iommu.pecBuffer().insert(e);
    iommu.setFaultHandler([&](ProcessId pid, Vpn vpn) {
        rig.drv.faultIn(pid, vpn);
    });

    EXPECT_FALSE(rig.drv.pageTable(1).walk(a.start_vpn).has_value());

    Tick first = 0, second = 0;
    Pfn pfn1 = invalid_pfn, pfn2 = invalid_pfn;
    iommu.sendAts(1, a.start_vpn, 0, [&](const AtsResponse &r) {
        first = rig.eq.now();
        pfn1 = r.pfn;
        // The group member on chiplet 1 was faulted in alongside.
        iommu.sendAts(1, a.start_vpn + 3, 1, [&](const AtsResponse &r2) {
            second = rig.eq.now();
            pfn2 = r2.pfn;
        });
    });
    rig.eq.run();
    EXPECT_EQ(statsOf(iommu).count("iommu.page_faults"), 1u);
    EXPECT_EQ(statsOf(rig.drv).count("driver.demand_faults"), 1u);
    EXPECT_GT(first, 5000u);
    EXPECT_LT(second - first, 2000u); // no second fault
    EXPECT_NE(pfn1, invalid_pfn);
    EXPECT_EQ(pfn2, rig.drv.pageTable(1).walk(a.start_vpn + 3)->pfn());
    // Whole group mapped by the one fault.
    for (std::uint64_t k = 0; k < 4; ++k) {
        EXPECT_TRUE(rig.drv.pageTable(1)
                        .walk(a.start_vpn + k * 3)
                        .has_value());
    }
}

TEST(IommuDemandPaging, UnreservedVpnStillReturnsInvalid)
{
    DriverParams dp{MappingPolicyKind::lasp, true, 1, 0.0, 7};
    dp.demand_paging = true;
    Rig rig(dp);
    IommuParams p;
    p.fault_latency = 100;
    Iommu iommu(rig.eq, "iommu", p, rig.pcie, rig.map);
    rig.drv.gpuMalloc(1, 4);
    iommu.attachPageTable(rig.drv.pageTable(1));
    iommu.setFaultHandler([&](ProcessId pid, Vpn vpn) {
        rig.drv.faultIn(pid, vpn);
    });
    Pfn pfn = 0;
    iommu.sendAts(1, 0x9999, 0,
                  [&](const AtsResponse &r) { pfn = r.pfn; });
    rig.eq.run();
    EXPECT_EQ(pfn, invalid_pfn);
}

TEST(DriverDemandPaging, NonBarreFaultsSinglePages)
{
    DriverParams dp{MappingPolicyKind::lasp, false, 1, 0.0, 7};
    dp.demand_paging = true;
    MemoryMap map(4, 0x4000);
    GpuDriver drv(map, dp);
    auto a = drv.gpuMalloc(1, 12);
    auto mapped = drv.faultIn(1, a.start_vpn);
    EXPECT_EQ(mapped, std::vector<Vpn>{a.start_vpn});
    EXPECT_FALSE(drv.pageTable(1).walk(a.start_vpn + 3).has_value());
    // Second fault on the same page is a no-op.
    EXPECT_TRUE(drv.faultIn(1, a.start_vpn).empty());
    EXPECT_EQ(statsOf(drv).count("driver.demand_faults"), 1u);
}

TEST(DriverDemandPaging, BarreFaultsGroups)
{
    DriverParams dp{MappingPolicyKind::lasp, true, 2, 0.0, 7};
    dp.demand_paging = true;
    MemoryMap map(4, 0x4000);
    GpuDriver drv(map, dp);
    auto a = drv.gpuMalloc(1, 16); // gran 4, merge 2
    auto mapped = drv.faultIn(1, a.start_vpn + 5);
    // Merged group: 2 pages x 4 chiplets.
    EXPECT_EQ(mapped.size(), 8u);
    EXPECT_TRUE(drv.pageTable(1).walk(a.start_vpn + 4).has_value());
    EXPECT_FALSE(drv.pageTable(1).walk(a.start_vpn + 6).has_value());
}
