/**
 * @file
 * Unit tests for the IOMMU: ATS round-trip timing, PTW pool and
 * PW-queue behaviour, Barre's PEC coalescing, coalescing-aware
 * scheduling (§V-C), and the optional IOMMU TLB (§VII-J).
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

    explicit Rig(bool barre = false)
        : pcie(eq, "pcie", PcieParams{32.0, 150}),
          drv(map, DriverParams{MappingPolicyKind::lasp, barre, 1, 0.0, 7})
    {}

    IommuParams
    params(std::uint32_t ptws, bool barre) const
    {
        IommuParams p;
        p.ptws = ptws;
        p.walk_latency = 500;
        p.pw_queue_entries = 48;
        p.barre = barre;
        return p;
    }
};

} // namespace

TEST(Iommu, SingleRequestRoundTripTiming)
{
    Rig rig;
    Iommu iommu(rig.eq, "iommu", rig.params(16, false), rig.pcie,
                rig.map);
    auto a = rig.drv.gpuMalloc(1, 4);
    iommu.attachPageTable(rig.drv.pageTable(1));

    Tick done = 0;
    Pfn pfn = invalid_pfn;
    iommu.sendAts(1, a.start_vpn, 0, [&](const AtsResponse &r) {
        done = rig.eq.now();
        pfn = r.pfn;
    });
    rig.eq.run();
    // 151 up + 500 walk + 151 down.
    EXPECT_EQ(done, 802u);
    EXPECT_EQ(pfn, rig.drv.pageTable(1).walk(a.start_vpn)->pfn());
    EXPECT_EQ(statsOf(iommu).count("iommu.ats_requests"), 1u);
    EXPECT_EQ(statsOf(iommu).count("iommu.walks"), 1u);
}

TEST(Iommu, SinglePtwSerializesWalks)
{
    Rig rig;
    Iommu iommu(rig.eq, "iommu", rig.params(1, false), rig.pcie,
                rig.map);
    auto a = rig.drv.gpuMalloc(1, 8);
    iommu.attachPageTable(rig.drv.pageTable(1));

    std::vector<Tick> done;
    for (int i = 0; i < 2; ++i) {
        iommu.sendAts(1, a.start_vpn + i, 0, [&](const AtsResponse &) {
            done.push_back(rig.eq.now());
        });
    }
    rig.eq.run();
    ASSERT_EQ(done.size(), 2u);
    EXPECT_GE(done[1], done[0] + 500); // queued behind the first walk
}

TEST(Iommu, InfinitePtwsWalkInParallel)
{
    Rig rig;
    Iommu iommu(rig.eq, "iommu", rig.params(0, false), rig.pcie,
                rig.map);
    auto a = rig.drv.gpuMalloc(1, 64);
    iommu.attachPageTable(rig.drv.pageTable(1));

    std::vector<Tick> done;
    for (int i = 0; i < 32; ++i) {
        iommu.sendAts(1, a.start_vpn + i, 0, [&](const AtsResponse &) {
            done.push_back(rig.eq.now());
        });
    }
    rig.eq.run();
    ASSERT_EQ(done.size(), 32u);
    // All walks overlap; only PCIe serialization spreads completions.
    EXPECT_LT(done.back() - done.front(), 500u);
    EXPECT_EQ(statsOf(iommu).count("iommu.walks"), 32u);
}

TEST(Iommu, OverflowBeyondPwQueueStillServed)
{
    Rig rig;
    IommuParams p = rig.params(2, false);
    p.pw_queue_entries = 4;
    Iommu iommu(rig.eq, "iommu", p, rig.pcie, rig.map);
    auto a = rig.drv.gpuMalloc(1, 64);
    iommu.attachPageTable(rig.drv.pageTable(1));

    int completed = 0;
    for (int i = 0; i < 20; ++i) {
        iommu.sendAts(1, a.start_vpn + i, 0,
                      [&](const AtsResponse &) { ++completed; });
    }
    rig.eq.run();
    EXPECT_EQ(completed, 20);
    EXPECT_EQ(statsOf(iommu).count("iommu.walks"), 20u);
}

TEST(Iommu, UnmappedVpnYieldsInvalidPfn)
{
    Rig rig;
    Iommu iommu(rig.eq, "iommu", rig.params(16, false), rig.pcie,
                rig.map);
    rig.drv.gpuMalloc(1, 4);
    iommu.attachPageTable(rig.drv.pageTable(1));
    Pfn pfn = 0;
    iommu.sendAts(1, 0x7777, 0,
                  [&](const AtsResponse &r) { pfn = r.pfn; });
    rig.eq.run();
    EXPECT_EQ(pfn, invalid_pfn);
}

TEST(Iommu, BarrePecCoalescesPendingGroupMembers)
{
    Rig rig(/*barre=*/true);
    Iommu iommu(rig.eq, "iommu", rig.params(1, true), rig.pcie, rig.map);
    auto a = rig.drv.gpuMalloc(1, 12); // gran 3, groups of 4
    iommu.attachPageTable(rig.drv.pageTable(1));
    for (const auto &e : rig.drv.pecEntries())
        iommu.pecBuffer().insert(e);

    // Request all four members of the group {s, s+3, s+6, s+9}.
    std::vector<std::pair<Vpn, Pfn>> results;
    for (std::uint64_t k = 0; k < 4; ++k) {
        Vpn v = a.start_vpn + k * 3;
        iommu.sendAts(1, v, static_cast<ChipletId>(k),
                      [&, v](const AtsResponse &r) {
                          results.emplace_back(v, r.pfn);
                      });
    }
    rig.eq.run();
    ASSERT_EQ(results.size(), 4u);
    // One walk serves the group; the rest are calculated.
    EXPECT_EQ(statsOf(iommu).count("iommu.walks"), 1u);
    EXPECT_EQ(statsOf(iommu).count("iommu.pec_calculated"), 3u);
    for (auto [v, pfn] : results)
        EXPECT_EQ(pfn, rig.drv.pageTable(1).walk(v)->pfn());
}

TEST(Iommu, BarreServesExactDuplicateRequests)
{
    Rig rig(true);
    Iommu iommu(rig.eq, "iommu", rig.params(1, true), rig.pcie, rig.map);
    auto a = rig.drv.gpuMalloc(1, 12);
    iommu.attachPageTable(rig.drv.pageTable(1));
    for (const auto &e : rig.drv.pecEntries())
        iommu.pecBuffer().insert(e);

    int completed = 0;
    for (int i = 0; i < 3; ++i) {
        iommu.sendAts(1, a.start_vpn, static_cast<ChipletId>(i),
                      [&](const AtsResponse &) { ++completed; });
    }
    rig.eq.run();
    EXPECT_EQ(completed, 3);
    EXPECT_EQ(statsOf(iommu).count("iommu.walks"), 1u);
    EXPECT_EQ(statsOf(iommu).count("iommu.pec_calculated"), 2u);
}

TEST(Iommu, CoalescedResponsesCarryPecEntry)
{
    Rig rig(true);
    Iommu iommu(rig.eq, "iommu", rig.params(16, true), rig.pcie,
                rig.map);
    auto a = rig.drv.gpuMalloc(1, 12);
    iommu.attachPageTable(rig.drv.pageTable(1));
    for (const auto &e : rig.drv.pecEntries())
        iommu.pecBuffer().insert(e);

    bool has_pec = false;
    CoalInfo coal;
    iommu.sendAts(1, a.start_vpn, 0, [&](const AtsResponse &r) {
        has_pec = r.has_pec;
        coal = r.coal;
    });
    rig.eq.run();
    EXPECT_TRUE(has_pec);
    EXPECT_TRUE(coal.coalesced());
}

TEST(Iommu, CoalAwareSchedulingDefersCoalescibleHeads)
{
    Rig rig(true);
    IommuParams p = rig.params(4, true);
    p.coal_aware_sched = true;
    Iommu iommu(rig.eq, "iommu", p, rig.pcie, rig.map);
    auto a = rig.drv.gpuMalloc(1, 12);
    iommu.attachPageTable(rig.drv.pageTable(1));
    for (const auto &e : rig.drv.pecEntries())
        iommu.pecBuffer().insert(e);

    int completed = 0;
    for (std::uint64_t k = 0; k < 4; ++k) {
        iommu.sendAts(1, a.start_vpn + k * 3, static_cast<ChipletId>(k),
                      [&](const AtsResponse &) { ++completed; });
    }
    rig.eq.run();
    EXPECT_EQ(completed, 4);
    // With 4 PTWs but coalescing-aware scheduling, one walk suffices.
    EXPECT_EQ(statsOf(iommu).count("iommu.walks"), 1u);
    EXPECT_EQ(statsOf(iommu).count("iommu.pec_calculated"), 3u);
    EXPECT_GT(statsOf(iommu).count("iommu.sched_deferrals"), 0u);
}

TEST(Iommu, WithoutCoalSchedulingParallelWalksWaste)
{
    Rig rig(true);
    Iommu iommu(rig.eq, "iommu", rig.params(4, true), rig.pcie,
                rig.map);
    auto a = rig.drv.gpuMalloc(1, 12);
    iommu.attachPageTable(rig.drv.pageTable(1));
    for (const auto &e : rig.drv.pecEntries())
        iommu.pecBuffer().insert(e);

    int completed = 0;
    for (std::uint64_t k = 0; k < 4; ++k) {
        iommu.sendAts(1, a.start_vpn + k * 3, static_cast<ChipletId>(k),
                      [&](const AtsResponse &) { ++completed; });
    }
    rig.eq.run();
    EXPECT_EQ(completed, 4);
    // All four arrive within the PCIe pipeline spread, so all four
    // dispatch to distinct PTWs before any walk completes.
    EXPECT_EQ(statsOf(iommu).count("iommu.walks"), 4u);
    EXPECT_EQ(statsOf(iommu).count("iommu.pec_calculated"), 0u);
}

TEST(Iommu, IommuTlbHitsSkipWalks)
{
    Rig rig;
    IommuParams p = rig.params(16, false);
    p.tlb_enabled = true;
    p.tlb_latency = 200;
    Iommu iommu(rig.eq, "iommu", p, rig.pcie, rig.map);
    auto a = rig.drv.gpuMalloc(1, 4);
    iommu.attachPageTable(rig.drv.pageTable(1));

    Tick first = 0, second = 0;
    iommu.sendAts(1, a.start_vpn, 0, [&](const AtsResponse &) {
        first = rig.eq.now();
        iommu.sendAts(1, a.start_vpn, 1, [&](const AtsResponse &) {
            second = rig.eq.now();
        });
    });
    rig.eq.run();
    EXPECT_EQ(statsOf(iommu).count("iommu.walks"), 1u);
    EXPECT_EQ(statsOf(iommu).count("iommu.tlb_hits"), 1u);
    // Hit path: 151 + 200 + 151 ~ 502 < miss path ~ 1002.
    EXPECT_LT(second - first, first);
}

TEST(Iommu, ProcessingTimeTracked)
{
    Rig rig;
    Iommu iommu(rig.eq, "iommu", rig.params(16, false), rig.pcie,
                rig.map);
    auto a = rig.drv.gpuMalloc(1, 4);
    iommu.attachPageTable(rig.drv.pageTable(1));
    iommu.sendAts(1, a.start_vpn, 0, [](const AtsResponse &) {});
    rig.eq.run();
    EXPECT_EQ(iommu.processingTime().count(), 1u);
    EXPECT_GT(iommu.processingTime().mean(), 500.0);
}
