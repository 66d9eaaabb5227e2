/**
 * @file
 * Unit tests for F-Barre's intra-MCM translation service: local
 * coalesced calculation, peer probing via RCFs, misprediction
 * fallbacks, filter-update propagation, and shootdown (§V-A).
 */

#include <gtest/gtest.h>

#include "driver/gpu_driver.hh"
#include "gpu/chiplet.hh"
#include "gpu/fbarre_service.hh"

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
    AtsService ats;
    std::unique_ptr<FBarreService> fb;
    std::vector<std::unique_ptr<Tlb>> tlbs;
    DataAlloc alloc;

    explicit Rig(FBarreParams fp = {}, std::uint32_t merge = 1)
        : noc(eq, "noc", 4), pcie(eq, "pcie"),
          iommu(eq, "iommu", makeIommuParams(), pcie, map),
          drv(map,
              DriverParams{MappingPolicyKind::lasp, true, merge, 0.0, 7}),
          ats(iommu)
    {
        fp.merge_width = merge;
        fb = std::make_unique<FBarreService>(eq, "fb", fp, 4, noc, map,
                                             ats);
        TlbParams tp{512, 16, 10, 16};
        for (std::uint32_t c = 0; c < 4; ++c) {
            tlbs.push_back(std::make_unique<Tlb>(tp));
            fb->attachL2Tlb(c, tlbs[c].get());
        }
        alloc = drv.gpuMalloc(1, 12); // gran 3, full groups
        iommu.attachPageTable(drv.pageTable(1));
        for (const auto &e : drv.pecEntries())
            iommu.pecBuffer().insert(e);
    }

    static IommuParams
    makeIommuParams()
    {
        IommuParams p;
        p.barre = true;
        return p;
    }

    /** Simulate a chiplet receiving an ATS response + TLB fill. */
    void
    fill(ChipletId c, Vpn vpn)
    {
        bool done = false;
        fb->translate(1, vpn, c, [&](const AtsResponse &r) {
            fb->onResponse(c, r);
            TlbEntry te;
            te.pid = 1;
            te.vpn = vpn;
            te.pfn = r.pfn;
            te.coal = r.coal;
            te.valid = true;
            tlbs[c]->insert(te);
            fb->onL2Insert(c, te);
            done = true;
        });
        eq.run();
        ASSERT_TRUE(done);
    }
};

} // namespace

TEST(FBarre, FirstMissFallsBackToAts)
{
    Rig rig;
    rig.fill(0, rig.alloc.start_vpn);
    EXPECT_EQ(statsOf(*rig.fb).count("fb.fallbacks"), 1u);
    EXPECT_EQ(statsOf(rig.iommu).count("iommu.ats_requests"), 1u);
    EXPECT_EQ(statsOf(*rig.fb).count("fb.local_calc_hits"), 0u);
}

TEST(FBarre, LocalCalcWhenLocalTlbHasGroupMember)
{
    Rig rig;
    // Prime chiplet 0 with vpn s (group {s, s+3, s+6, s+9}).
    rig.fill(0, rig.alloc.start_vpn);
    // Now chiplet 0 asks for s+3: its own TLB holds a group member
    // (this happens when CTAs migrate or data is shared).
    Pfn pfn = invalid_pfn;
    bool calculated = false;
    rig.fb->translate(1, rig.alloc.start_vpn + 3, 0,
                      [&](const AtsResponse &r) {
                          pfn = r.pfn;
                          calculated = r.calculated;
                      });
    rig.eq.run();
    EXPECT_EQ(statsOf(*rig.fb).count("fb.local_calc_hits"), 1u);
    EXPECT_TRUE(calculated);
    EXPECT_EQ(pfn,
              rig.drv.pageTable(1).walk(rig.alloc.start_vpn + 3)->pfn());
    // No new ATS.
    EXPECT_EQ(statsOf(rig.iommu).count("iommu.ats_requests"), 1u);
}

TEST(FBarre, RemotePeerCalculatesViaRcf)
{
    Rig rig;
    rig.fill(0, rig.alloc.start_vpn); // peers' RCF0 now hold the group
    // Chiplet 2 misses on s+6 (its own page, but TLB cold): the RCF
    // points at chiplet 0, which calculates.
    Pfn pfn = invalid_pfn;
    rig.fb->translate(1, rig.alloc.start_vpn + 6, 2,
                      [&](const AtsResponse &r) { pfn = r.pfn; });
    rig.eq.run();
    EXPECT_EQ(statsOf(*rig.fb).count("fb.remote_probes"), 1u);
    EXPECT_EQ(statsOf(*rig.fb).count("fb.remote_hits"), 1u);
    EXPECT_EQ(pfn,
              rig.drv.pageTable(1).walk(rig.alloc.start_vpn + 6)->pfn());
    EXPECT_EQ(statsOf(rig.iommu).count("iommu.ats_requests"), 1u);
}

TEST(FBarre, RemotePeerServesExactVpn)
{
    Rig rig;
    rig.fill(0, rig.alloc.start_vpn);
    // Chiplet 1 asks for the exact VPN chiplet 0 holds.
    Pfn pfn = invalid_pfn;
    rig.fb->translate(1, rig.alloc.start_vpn, 1,
                      [&](const AtsResponse &r) { pfn = r.pfn; });
    rig.eq.run();
    EXPECT_EQ(statsOf(*rig.fb).count("fb.remote_hits"), 1u);
    EXPECT_EQ(pfn,
              rig.drv.pageTable(1).walk(rig.alloc.start_vpn)->pfn());
}

TEST(FBarre, EvictionWithdrawsFilterState)
{
    Rig rig;
    rig.fill(0, rig.alloc.start_vpn);
    // Evict: peers drop their RCF entries (after the update messages
    // propagate).
    auto te = rig.tlbs[0]->peek(1, rig.alloc.start_vpn);
    ASSERT_TRUE(te.has_value());
    rig.tlbs[0]->invalidate(1, rig.alloc.start_vpn);
    rig.fb->onL2Evict(0, *te);
    rig.eq.run(); // deliver filter updates

    // Now chiplet 2's miss finds no sharer and falls back.
    rig.fb->translate(1, rig.alloc.start_vpn + 6, 2,
                      [](const AtsResponse &) {});
    rig.eq.run();
    EXPECT_EQ(statsOf(*rig.fb).count("fb.remote_probes"), 0u);
    EXPECT_EQ(statsOf(*rig.fb).count("fb.fallbacks"), 2u);
}

TEST(FBarre, MispredictionNacksAndFallsBack)
{
    Rig rig;
    rig.fill(0, rig.alloc.start_vpn);
    // Make chiplet 0's TLB lose the entry *without* telling peers
    // (models a lost best-effort update).
    rig.tlbs[0]->invalidate(1, rig.alloc.start_vpn);
    auto te = rig.tlbs[0]->peek(1, rig.alloc.start_vpn);
    EXPECT_FALSE(te.has_value());
    // LCF still claims it; erase LCF too so the peer's local probe
    // fails cleanly through the TLB-peek path.
    Pfn pfn = invalid_pfn;
    rig.fb->translate(1, rig.alloc.start_vpn + 6, 2,
                      [&](const AtsResponse &r) { pfn = r.pfn; });
    rig.eq.run();
    EXPECT_EQ(statsOf(*rig.fb).count("fb.remote_probes"), 1u);
    EXPECT_EQ(statsOf(*rig.fb).count("fb.remote_hits"), 0u);
    // The initial fill and this NACK.
    EXPECT_EQ(statsOf(*rig.fb).count("fb.fallbacks"), 2u);
    EXPECT_EQ(pfn,
              rig.drv.pageTable(1).walk(rig.alloc.start_vpn + 6)->pfn());
}

TEST(FBarre, FilterUpdatesCountedPerPeerAndMember)
{
    Rig rig;
    rig.fill(0, rig.alloc.start_vpn);
    // 3 peers x 4 group members = 12 add-updates.
    EXPECT_EQ(statsOf(*rig.fb).count("fb.filter_updates"), 12u);
}

TEST(FBarre, PeerSharingDisabledGoesStraightToAts)
{
    FBarreParams fp;
    fp.peer_sharing = false;
    Rig rig(fp);
    rig.fill(0, rig.alloc.start_vpn);
    Pfn pfn = invalid_pfn;
    rig.fb->translate(1, rig.alloc.start_vpn + 6, 2,
                      [&](const AtsResponse &r) { pfn = r.pfn; });
    rig.eq.run();
    EXPECT_EQ(statsOf(*rig.fb).count("fb.remote_probes"), 0u);
    EXPECT_EQ(statsOf(rig.iommu).count("iommu.ats_requests"), 2u);
    EXPECT_EQ(statsOf(*rig.fb).count("fb.filter_updates"), 0u);
}

TEST(FBarre, ShootdownResetsFilters)
{
    Rig rig;
    rig.fill(0, rig.alloc.start_vpn);
    rig.fb->onShootdown();
    rig.fb->translate(1, rig.alloc.start_vpn + 6, 2,
                      [](const AtsResponse &) {});
    rig.eq.run();
    // The RCFs are clean.
    EXPECT_EQ(statsOf(*rig.fb).count("fb.remote_probes"), 0u);
}

TEST(FBarre, OracleSharingAvoidsNoc)
{
    FBarreParams fp;
    fp.oracle_sharing = true;
    Rig rig(fp);
    std::uint64_t noc_before = statsOf(rig.noc).count("noc.messages");
    rig.fill(0, rig.alloc.start_vpn);
    Pfn pfn = invalid_pfn;
    rig.fb->translate(1, rig.alloc.start_vpn + 6, 2,
                      [&](const AtsResponse &r) { pfn = r.pfn; });
    rig.eq.run();
    EXPECT_EQ(statsOf(*rig.fb).count("fb.remote_hits"), 1u);
    // No NoC traffic.
    EXPECT_EQ(statsOf(rig.noc).count("noc.messages"), noc_before);
    EXPECT_EQ(pfn,
              rig.drv.pageTable(1).walk(rig.alloc.start_vpn + 6)->pfn());
}

TEST(FBarre, MergedGroupsCalculateAcrossTheRun)
{
    FBarreParams fp;
    Rig rig(fp, /*merge=*/2);
    // With merge 2 and 16+ pages gran is 3 for 12 pages... allocate a
    // fresh buffer with gran 4 so merged blocks exist.
    auto big = rig.drv.gpuMalloc(1, 16);
    for (const auto &e : rig.drv.pecEntries())
        rig.iommu.pecBuffer().insert(e);
    rig.fill(0, big.start_vpn); // merged group {0,1} x 4 chiplets
    Pfn pfn = invalid_pfn;
    bool calculated = false;
    rig.fb->translate(1, big.start_vpn + 1, 0,
                      [&](const AtsResponse &r) {
                          pfn = r.pfn;
                          calculated = r.calculated;
                      });
    rig.eq.run();
    EXPECT_TRUE(calculated);
    EXPECT_EQ(statsOf(*rig.fb).count("fb.local_calc_hits"), 1u);
    EXPECT_EQ(pfn, rig.drv.pageTable(1).walk(big.start_vpn + 1)->pfn());
}

TEST(FBarre, StorageBitsMatchSec7K)
{
    Rig rig;
    // 4 cuckoo filters x 1024 x 9 bits + 5 x 118-bit PEC buffer.
    EXPECT_EQ(rig.fb->perChipletStorageBits(), 4u * 1024 * 9 + 590u);
}
