/**
 * @file
 * Unit tests for the distributed GMMU (MGvm platform, §VII-F).
 */

#include <gtest/gtest.h>

#include "driver/gpu_driver.hh"
#include "iommu/gmmu.hh"
#include "sim/invariant.hh"

#include "stats_of.hh"

using namespace barre;

namespace
{

struct Rig
{
    EventQueue eq;
    MemoryMap map{4, 0x4000};
    Interconnect noc;
    GpuDriver drv;
    DataAlloc alloc;

    explicit Rig(bool barre = false)
        : noc(eq, "noc", 4, InterconnectParams{768.0, 32}),
          drv(map, DriverParams{MappingPolicyKind::lasp, barre, 1, 0.0, 7})
    {
        alloc = drv.gpuMalloc(1, 12);
    }

    GmmuParams
    params(bool barre) const
    {
        GmmuParams p;
        p.ptws_per_chiplet = 2;
        p.walk_latency = 500;
        p.barre = barre;
        return p;
    }

    GmmuSystem::HomeFn
    homeFn()
    {
        return [this](ProcessId, Vpn vpn) {
            return alloc.layout.chipletOf(vpn);
        };
    }
};

} // namespace

TEST(Gmmu, LocalWalkStaysOnChiplet)
{
    Rig rig;
    GmmuSystem gmmu(rig.eq, "gmmu", rig.params(false), 4, rig.noc,
                    rig.map, rig.homeFn());
    gmmu.attachPageTable(rig.drv.pageTable(1));

    // VPN start+0 is homed on chiplet 0; requester is chiplet 0.
    Tick done = 0;
    Pfn pfn = invalid_pfn;
    gmmu.translate(1, rig.alloc.start_vpn, 0, [&](const AtsResponse &r) {
        done = rig.eq.now();
        pfn = r.pfn;
    });
    rig.eq.run();
    EXPECT_EQ(statsOf(gmmu).count("gmmu.local_walks"), 1u);
    EXPECT_EQ(statsOf(gmmu).count("gmmu.remote_walks"), 0u);
    EXPECT_EQ(done, 502u); // walk + 2-cycle egress, no NoC
    EXPECT_EQ(pfn, rig.drv.pageTable(1).walk(rig.alloc.start_vpn)->pfn());
}

TEST(Gmmu, RemoteWalkCrossesTheNoc)
{
    Rig rig;
    GmmuSystem gmmu(rig.eq, "gmmu", rig.params(false), 4, rig.noc,
                    rig.map, rig.homeFn());
    gmmu.attachPageTable(rig.drv.pageTable(1));

    // VPN start+3 is homed on chiplet 1; requester is chiplet 0.
    Tick done = 0;
    gmmu.translate(1, rig.alloc.start_vpn + 3, 0,
                   [&](const AtsResponse &) { done = rig.eq.now(); });
    rig.eq.run();
    EXPECT_EQ(statsOf(gmmu).count("gmmu.remote_walks"), 1u);
    EXPECT_EQ(statsOf(gmmu).count("gmmu.local_walks"), 0u);
    // Two NoC hops (33 each) + 500 walk.
    EXPECT_EQ(done, 566u);
}

TEST(Gmmu, WalkerPoolSerializesPerChiplet)
{
    Rig rig;
    GmmuSystem gmmu(rig.eq, "gmmu", rig.params(false), 4, rig.noc,
                    rig.map, rig.homeFn());
    gmmu.attachPageTable(rig.drv.pageTable(1));

    std::vector<Tick> done;
    // Three walks homed on chiplet 0 with 2 walkers.
    for (Vpn v : {rig.alloc.start_vpn, rig.alloc.start_vpn + 1,
                  rig.alloc.start_vpn + 2}) {
        gmmu.translate(1, v, 0, [&](const AtsResponse &) {
            done.push_back(rig.eq.now());
        });
    }
    rig.eq.run();
    ASSERT_EQ(done.size(), 3u);
    EXPECT_GE(done[2], done[0] + 500);
}

TEST(Gmmu, BarreCoalescesQueuedGroupMembers)
{
    Rig rig(true);
    GmmuParams p = rig.params(true);
    p.ptws_per_chiplet = 1;
    GmmuSystem gmmu(rig.eq, "gmmu", p, 4, rig.noc, rig.map,
                    // Home everything on chiplet 0 to share one queue.
                    [](ProcessId, Vpn) { return ChipletId{0}; });
    gmmu.attachPageTable(rig.drv.pageTable(1));
    for (const auto &e : rig.drv.pecEntries())
        gmmu.pecBuffer().insert(e);

    std::vector<std::pair<Vpn, Pfn>> results;
    for (std::uint64_t k = 0; k < 4; ++k) {
        Vpn v = rig.alloc.start_vpn + k * 3;
        gmmu.translate(1, v, 0, [&, v](const AtsResponse &r) {
            results.emplace_back(v, r.pfn);
        });
    }
    rig.eq.run();
    ASSERT_EQ(results.size(), 4u);
    const StatRegistry stats = statsOf(gmmu);
    const std::uint64_t walks =
        stats.count("gmmu.local_walks") + stats.count("gmmu.remote_walks");
    // Every request is served by a walk or by coalescing onto one.
    EXPECT_EQ(walks + stats.count("gmmu.pec_calculated"), 4u);
    // One walk serves the whole group.
    EXPECT_EQ(walks, 1u);
    EXPECT_EQ(stats.count("gmmu.pec_calculated"), 3u);
    for (auto [v, pfn] : results)
        EXPECT_EQ(pfn, rig.drv.pageTable(1).walk(v)->pfn());
}

// A GMMU's PEC scan checks each calculated PFN against the page table
// (invariant builds), as the IOMMU's does: they are one walk stage.
TEST(Gmmu, CalculatedPfnAuditFires)
{
    if (!invariants_enabled)
        GTEST_SKIP() << "the PFN audit needs BARRE_CHECK_INVARIANTS";
    Rig rig(true);
    GmmuParams p = rig.params(true);
    p.ptws_per_chiplet = 1;
    GmmuSystem gmmu(rig.eq, "gmmu", p, 4, rig.noc, rig.map,
                    [](ProcessId, Vpn) { return ChipletId{0}; });
    gmmu.attachPageTable(rig.drv.pageTable(1));
    for (const auto &e : rig.drv.pecEntries())
        gmmu.pecBuffer().insert(e);
    // Remap a group member a frame off, keeping its coalescing bits:
    // the PEC calculation no longer matches the page table.
    PageTable &pt = rig.drv.pageTable(1);
    const Vpn victim = rig.alloc.start_vpn + 3;
    const auto pte = pt.walk(victim);
    ASSERT_TRUE(pte.has_value());
    pt.map(victim, pte->pfn() + 1, pte->coalInfo());
    // One walker: the victim queues behind its group's first walk.
    for (Vpn v : {rig.alloc.start_vpn, victim})
        gmmu.translate(1, v, 0, [](const AtsResponse &) {});
    EXPECT_THROW(rig.eq.run(), std::logic_error);
}

TEST(Gmmu, UnknownProcessPanics)
{
    Rig rig;
    GmmuSystem gmmu(rig.eq, "gmmu", rig.params(false), 4, rig.noc,
                    rig.map, rig.homeFn());
    gmmu.translate(9, rig.alloc.start_vpn, 0, [](const AtsResponse &) {});
    EXPECT_THROW(rig.eq.run(), std::logic_error);
}
