/**
 * @file
 * Unit tests for the Valkyrie and Least baseline services (§VII-A).
 */

#include <gtest/gtest.h>

#include "baselines/least.hh"
#include "baselines/valkyrie.hh"
#include "driver/gpu_driver.hh"

#include "stats_of.hh"

using namespace barre;

namespace
{

struct Rig
{
    EventQueue eq;
    MemoryMap map{4, 0x4000};
    Interconnect noc;
    Pcie pcie;
    Iommu iommu;
    GpuDriver drv;
    std::vector<std::unique_ptr<Tlb>> tlbs;
    DataAlloc alloc;

    Rig()
        : noc(eq, "noc", 4), pcie(eq, "pcie"),
          iommu(eq, "iommu", IommuParams{}, pcie, map),
          drv(map,
              DriverParams{MappingPolicyKind::lasp, false, 1, 0.0, 7})
    {
        TlbParams tp{512, 16, 10, 16};
        for (int c = 0; c < 4; ++c)
            tlbs.push_back(std::make_unique<Tlb>(tp));
        alloc = drv.gpuMalloc(1, 16);
        iommu.attachPageTable(drv.pageTable(1));
    }
};

TlbEntry
entryFor(const Rig &rig, Vpn vpn)
{
    TlbEntry te;
    te.pid = 1;
    te.vpn = vpn;
    te.pfn = const_cast<Rig &>(rig).drv.pageTable(1).walk(vpn)->pfn();
    te.valid = true;
    return te;
}

} // namespace

TEST(Valkyrie, PrefetchesNextVpnOnSequentialStream)
{
    Rig rig;
    ValkyrieService svc(rig.iommu, ValkyrieParams{true, 1}, 4);
    for (int c = 0; c < 4; ++c)
        svc.attachL2Tlb(c, rig.tlbs[c].get());
    // Stand-in for the chiplet's unsolicited-fill entry.
    svc.setFillSink([&](ChipletId c, const AtsResponse &resp) {
        rig.tlbs[c]->insert(entryFor(rig, resp.vpn));
    });

    int done = 0;
    // First miss primes the stride gate; the sequential second miss
    // triggers the next-page prefetch.
    svc.translate(1, rig.alloc.start_vpn, 0,
                  [&](const AtsResponse &) { ++done; });
    svc.translate(1, rig.alloc.start_vpn + 1, 0,
                  [&](const AtsResponse &) { ++done; });
    rig.eq.run();
    EXPECT_EQ(done, 2);
    EXPECT_EQ(svc.prefetches(), 1u);
    EXPECT_EQ(svc.prefetchFills(), 1u);
    EXPECT_TRUE(rig.tlbs[0]->peek(1, rig.alloc.start_vpn + 2)
                    .has_value());
    EXPECT_EQ(statsOf(rig.iommu).count("iommu.ats_requests"), 3u);
}

TEST(Valkyrie, NonSequentialMissDoesNotPrefetch)
{
    Rig rig;
    ValkyrieService svc(rig.iommu, ValkyrieParams{true, 1}, 4);
    for (int c = 0; c < 4; ++c)
        svc.attachL2Tlb(c, rig.tlbs[c].get());
    svc.translate(1, rig.alloc.start_vpn, 0, [](const AtsResponse &) {});
    svc.translate(1, rig.alloc.start_vpn + 7, 0,
                  [](const AtsResponse &) {});
    rig.eq.run();
    EXPECT_EQ(svc.prefetches(), 0u);
}

TEST(Valkyrie, NoPrefetchWhenAlreadyPresent)
{
    Rig rig;
    ValkyrieService svc(rig.iommu, ValkyrieParams{true, 1}, 4);
    for (int c = 0; c < 4; ++c)
        svc.attachL2Tlb(c, rig.tlbs[c].get());
    rig.tlbs[0]->insert(entryFor(rig, rig.alloc.start_vpn + 1));
    svc.translate(1, rig.alloc.start_vpn, 0, [](const AtsResponse &) {});
    rig.eq.run();
    EXPECT_EQ(svc.prefetches(), 0u);
}

TEST(Valkyrie, PrefetchPastBufferEndIsHarmless)
{
    Rig rig;
    ValkyrieService svc(rig.iommu, ValkyrieParams{true, 1}, 4);
    for (int c = 0; c < 4; ++c)
        svc.attachL2Tlb(c, rig.tlbs[c].get());
    Vpn last = rig.alloc.start_vpn + rig.alloc.pages - 1;
    int done = 0;
    svc.translate(1, last - 1, 0, [&](const AtsResponse &) { ++done; });
    svc.translate(1, last, 0, [&](const AtsResponse &) { ++done; });
    rig.eq.run();
    EXPECT_EQ(done, 2);
    EXPECT_EQ(svc.prefetches(), 1u);
    EXPECT_EQ(svc.prefetchFills(), 0u); // vpn+1 is the guard page
}

TEST(Valkyrie, DisabledPrefetchIsPlainAts)
{
    Rig rig;
    ValkyrieService svc(rig.iommu, ValkyrieParams{false, 1}, 4);
    for (int c = 0; c < 4; ++c)
        svc.attachL2Tlb(c, rig.tlbs[c].get());
    svc.translate(1, rig.alloc.start_vpn, 0, [](const AtsResponse &) {});
    rig.eq.run();
    EXPECT_EQ(statsOf(rig.iommu).count("iommu.ats_requests"), 1u);
}

TEST(Least, RemoteHitFetchesFromPeerTlb)
{
    Rig rig;
    LeastService svc(rig.eq, "least", rig.iommu, rig.noc, 4,
                     LeastParams{});
    for (int c = 0; c < 4; ++c)
        svc.attachL2Tlb(c, rig.tlbs[c].get());
    // Peer 2 holds the translation; its insert broadcast must land in
    // chiplet 0's tracker replica before the miss consults it.
    rig.tlbs[2]->insert(entryFor(rig, rig.alloc.start_vpn));
    svc.onL2Insert(2, entryFor(rig, rig.alloc.start_vpn));
    rig.eq.run();

    Pfn pfn = invalid_pfn;
    svc.translate(1, rig.alloc.start_vpn, 0,
                  [&](const AtsResponse &r) { pfn = r.pfn; });
    rig.eq.run();
    EXPECT_EQ(svc.remoteLookups(), 1u);
    EXPECT_EQ(svc.remoteHits(), 1u);
    EXPECT_EQ(statsOf(rig.iommu).count("iommu.ats_requests"), 0u);
    EXPECT_EQ(pfn,
              rig.drv.pageTable(1).walk(rig.alloc.start_vpn)->pfn());
}

TEST(Least, MissFallsBackToAts)
{
    Rig rig;
    LeastService svc(rig.eq, "least", rig.iommu, rig.noc, 4,
                     LeastParams{});
    for (int c = 0; c < 4; ++c)
        svc.attachL2Tlb(c, rig.tlbs[c].get());
    int done = 0;
    svc.translate(1, rig.alloc.start_vpn, 0,
                  [&](const AtsResponse &) { ++done; });
    rig.eq.run();
    EXPECT_EQ(done, 1);
    EXPECT_EQ(svc.remoteLookups(), 0u);
    EXPECT_EQ(svc.atsFallbacks(), 1u);
    EXPECT_EQ(statsOf(rig.iommu).count("iommu.ats_requests"), 1u);
}

TEST(Least, RacedEvictionNacksToAts)
{
    Rig rig;
    LeastService svc(rig.eq, "least", rig.iommu, rig.noc, 4,
                     LeastParams{});
    for (int c = 0; c < 4; ++c)
        svc.attachL2Tlb(c, rig.tlbs[c].get());
    rig.tlbs[2]->insert(entryFor(rig, rig.alloc.start_vpn));
    svc.onL2Insert(2, entryFor(rig, rig.alloc.start_vpn));
    rig.eq.run();
    int done = 0;
    svc.translate(1, rig.alloc.start_vpn, 0,
                  [&](const AtsResponse &) { ++done; });
    // Evict before the probe lands; the tracker replica goes stale.
    rig.tlbs[2]->invalidate(1, rig.alloc.start_vpn);
    rig.eq.run();
    EXPECT_EQ(done, 1);
    EXPECT_EQ(svc.remoteHits(), 0u);
    EXPECT_EQ(statsOf(rig.iommu).count("iommu.ats_requests"), 1u);
}

TEST(Least, EvictionSpillsToNextChiplet)
{
    Rig rig;
    LeastService svc(rig.eq, "least", rig.iommu, rig.noc, 4,
                     LeastParams{});
    for (int c = 0; c < 4; ++c)
        svc.attachL2Tlb(c, rig.tlbs[c].get());
    TlbEntry te = entryFor(rig, rig.alloc.start_vpn);
    svc.onL2Evict(0, te);
    // The spill travels over the interconnect now.
    EXPECT_EQ(svc.spills(), 0u);
    rig.eq.run();
    EXPECT_EQ(svc.spills(), 1u);
    EXPECT_TRUE(rig.tlbs[1]->peek(1, rig.alloc.start_vpn).has_value());
}

TEST(Least, SpillingDisabled)
{
    Rig rig;
    LeastParams p;
    p.spilling = false;
    LeastService svc(rig.eq, "least", rig.iommu, rig.noc, 4, p);
    for (int c = 0; c < 4; ++c)
        svc.attachL2Tlb(c, rig.tlbs[c].get());
    svc.onL2Evict(0, entryFor(rig, rig.alloc.start_vpn));
    EXPECT_EQ(svc.spills(), 0u);
}
