/**
 * @file
 * Unit + property tests for the driver's Barre data-mapping enforcement
 * (§IV-C/G) and migration-driven de-coalescing (§VI).
 */

#include <gtest/gtest.h>

#include <map>

#include "driver/gpu_driver.hh"

#include "stats_of.hh"

using namespace barre;

namespace
{

MemoryMap
map4()
{
    return MemoryMap(4, 0x4000);
}

DriverParams
barreParams(std::uint32_t merge = 1)
{
    DriverParams p;
    p.policy = MappingPolicyKind::lasp;
    p.barre = true;
    p.merge_limit = merge;
    return p;
}

} // namespace

TEST(GpuDriver, AllocatesEveryPage)
{
    MemoryMap map = map4();
    GpuDriver drv(map, barreParams());
    auto a = drv.gpuMalloc(1, 12);
    EXPECT_EQ(a.pages, 12u);
    PageTable &pt = drv.pageTable(1);
    for (std::uint64_t p = 0; p < 12; ++p)
        EXPECT_TRUE(pt.walk(a.start_vpn + p).has_value());
    EXPECT_EQ(drv.totalMappedPages(), 12u);
}

TEST(GpuDriver, CoalescedGroupsShareLocalPfn)
{
    MemoryMap map = map4();
    GpuDriver drv(map, barreParams());
    auto a = drv.gpuMalloc(1, 12); // gran 3 over 4 chiplets
    EXPECT_EQ(a.coalesced_pages, 12u);
    PageTable &pt = drv.pageTable(1);

    // Pages k*3 + o for fixed o form one group: same local PFN,
    // ascending chiplets (Fig 7a / Example 1).
    for (std::uint64_t o = 0; o < 3; ++o) {
        LocalPfn local = invalid_pfn;
        for (std::uint64_t k = 0; k < 4; ++k) {
            auto pte = pt.walk(a.start_vpn + k * 3 + o);
            ASSERT_TRUE(pte.has_value());
            EXPECT_EQ(map.chipletOf(pte->pfn()), k);
            if (local == invalid_pfn)
                local = map.localOf(pte->pfn());
            else
                EXPECT_EQ(map.localOf(pte->pfn()), local);
            CoalInfo ci = pte->coalInfo();
            EXPECT_EQ(ci.bitmap, 0b1111u);
            EXPECT_EQ(ci.interOrder, k);
            EXPECT_FALSE(ci.merged);
        }
    }
}

TEST(GpuDriver, PagesLandOnLayoutChiplet)
{
    MemoryMap map = map4();
    GpuDriver drv(map, barreParams());
    auto a = drv.gpuMalloc(1, 100);
    PageTable &pt = drv.pageTable(1);
    for (std::uint64_t p = 0; p < 100; ++p) {
        Vpn vpn = a.start_vpn + p;
        auto pte = pt.walk(vpn);
        ASSERT_TRUE(pte.has_value());
        EXPECT_EQ(map.chipletOf(pte->pfn()), a.layout.chipletOf(vpn));
    }
}

TEST(GpuDriver, PartialTailGroupCoalesces)
{
    MemoryMap map = map4();
    GpuDriver drv(map, barreParams());
    // 3 pages over 4 chiplets: one group of three sharers (data 3 of
    // Fig 7a).
    auto a = drv.gpuMalloc(1, 3);
    PageTable &pt = drv.pageTable(1);
    for (std::uint64_t p = 0; p < 3; ++p) {
        CoalInfo ci = pt.walk(a.start_vpn + p)->coalInfo();
        EXPECT_EQ(ci.bitmap, 0b0111u);
        EXPECT_EQ(ci.interOrder, p);
    }
    EXPECT_EQ(a.coalesced_pages, 3u);
}

TEST(GpuDriver, SinglePageDoesNotCoalesce)
{
    MemoryMap map = map4();
    GpuDriver drv(map, barreParams());
    auto a = drv.gpuMalloc(1, 1);
    EXPECT_EQ(a.coalesced_pages, 0u);
    auto pte = drv.pageTable(1).walk(a.start_vpn);
    EXPECT_FALSE(pte->coalInfo().coalesced());
}

TEST(GpuDriver, MergedGroupsUseContiguousFrames)
{
    MemoryMap map = map4();
    GpuDriver drv(map, barreParams(2));
    auto a = drv.gpuMalloc(1, 16); // gran 4, width 2
    PageTable &pt = drv.pageTable(1);
    EXPECT_GT(statsOf(drv).count("driver.merged_pages"), 0u);

    for (std::uint64_t k = 0; k < 4; ++k) {
        for (std::uint64_t ob = 0; ob < 4; ob += 2) {
            auto p0 = pt.walk(a.start_vpn + k * 4 + ob);
            auto p1 = pt.walk(a.start_vpn + k * 4 + ob + 1);
            ASSERT_TRUE(p0 && p1);
            EXPECT_EQ(p1->pfn(), p0->pfn() + 1); // contiguous frames
            CoalInfo c0 = p0->coalInfo();
            CoalInfo c1 = p1->coalInfo();
            EXPECT_TRUE(c0.merged);
            EXPECT_EQ(c0.numMerged, 2);
            EXPECT_EQ(c0.intraOrder, 0);
            EXPECT_EQ(c1.intraOrder, 1);
            EXPECT_EQ(c0.interOrder, k);
        }
    }
}

TEST(GpuDriver, MergeDisabledBeyondFourChiplets)
{
    MemoryMap map(8, 0x4000);
    DriverParams p = barreParams(2);
    GpuDriver drv(map, p);
    auto a = drv.gpuMalloc(1, 32);
    EXPECT_EQ(statsOf(drv).count("driver.merged_pages"), 0u);
    EXPECT_GT(a.coalesced_pages, 0u); // plain coalescing still works
}

TEST(GpuDriver, NonBarreModeNeverCoalesces)
{
    MemoryMap map = map4();
    DriverParams p = barreParams();
    p.barre = false;
    GpuDriver drv(map, p);
    auto a = drv.gpuMalloc(1, 64);
    EXPECT_EQ(a.coalesced_pages, 0u);
    EXPECT_TRUE(drv.pecEntries().empty());
}

TEST(GpuDriver, PecEntryRegisteredForCoalescedData)
{
    MemoryMap map = map4();
    GpuDriver drv(map, barreParams());
    auto a = drv.gpuMalloc(1, 12);
    ASSERT_EQ(drv.pecEntries().size(), 1u);
    const PecEntry &e = drv.pecEntries().front();
    EXPECT_EQ(e.start_vpn, a.start_vpn);
    EXPECT_EQ(e.gran, 3u);
    EXPECT_EQ(e.pid, 1u);
}

TEST(GpuDriver, FragmentationForcesFallback)
{
    MemoryMap map(4, 512);
    DriverParams p = barreParams();
    p.fragmentation = 0.9; // almost nothing commonly free
    GpuDriver drv(map, p);
    auto a = drv.gpuMalloc(1, 40);
    // All pages are mapped even when coalescing fails.
    EXPECT_EQ(drv.totalMappedPages(), 40u);
    EXPECT_LT(a.coalesced_pages, 40u);
    EXPECT_GT(drv.fallbackPages(), 0u);
}

TEST(GpuDriver, BuffersDoNotOverlap)
{
    MemoryMap map = map4();
    GpuDriver drv(map, barreParams());
    auto a = drv.gpuMalloc(1, 10);
    auto b = drv.gpuMalloc(1, 10);
    EXPECT_GE(b.start_vpn, a.start_vpn + a.pages + 1);
}

TEST(GpuDriver, DistinctProcessesGetDistinctTables)
{
    MemoryMap map = map4();
    GpuDriver drv(map, barreParams());
    auto a = drv.gpuMalloc(1, 4);
    auto b = drv.gpuMalloc(2, 4);
    EXPECT_TRUE(drv.pageTable(1).walk(a.start_vpn).has_value());
    EXPECT_FALSE(drv.pageTable(2).walk(a.start_vpn).has_value() &&
                 a.start_vpn != b.start_vpn);
}

// ---------------------------------------------------------------------
// Migration / de-coalescing
// ---------------------------------------------------------------------

TEST(GpuDriverMigration, MovesPageAndClearsItsCoalInfo)
{
    MemoryMap map = map4();
    GpuDriver drv(map, barreParams());
    auto a = drv.gpuMalloc(1, 12);
    Vpn victim = a.start_vpn + 3; // order 1 -> chiplet 1
    auto res = drv.migratePage(1, victim, 3);
    ASSERT_TRUE(res.has_value());
    auto pte = drv.pageTable(1).walk(victim);
    EXPECT_EQ(map.chipletOf(pte->pfn()), 3u);
    EXPECT_FALSE(pte->coalInfo().coalesced());
    EXPECT_EQ(drv.migrations(), 1u);
}

TEST(GpuDriverMigration, PeersDropTheMigratedPosition)
{
    MemoryMap map = map4();
    GpuDriver drv(map, barreParams());
    auto a = drv.gpuMalloc(1, 12);
    Vpn victim = a.start_vpn + 3; // group {s+0, s+3, s+6, s+9}, order 1
    auto res = drv.migratePage(1, victim, 3);
    ASSERT_TRUE(res.has_value());

    PageTable &pt = drv.pageTable(1);
    for (Vpn peer : {a.start_vpn + 0, a.start_vpn + 6, a.start_vpn + 9}) {
        CoalInfo ci = pt.walk(peer)->coalInfo();
        EXPECT_EQ(ci.bitmap, 0b1101u) << "peer " << peer;
    }
    // Stale list covers the whole former group.
    EXPECT_EQ(res->stale_vpns.size(), 4u);
}

TEST(GpuDriverMigration, GroupOfTwoDissolvesEntirely)
{
    MemoryMap map(2, 0x1000);
    GpuDriver drv(map, barreParams());
    auto a = drv.gpuMalloc(1, 2); // one group of two
    auto res = drv.migratePage(1, a.start_vpn, 1);
    ASSERT_TRUE(res.has_value());
    PageTable &pt = drv.pageTable(1);
    EXPECT_FALSE(pt.walk(a.start_vpn)->coalInfo().coalesced());
    EXPECT_FALSE(pt.walk(a.start_vpn + 1)->coalInfo().coalesced());
}

TEST(GpuDriverMigration, NoopCases)
{
    MemoryMap map = map4();
    GpuDriver drv(map, barreParams());
    auto a = drv.gpuMalloc(1, 12);
    // Already on the destination.
    EXPECT_FALSE(drv.migratePage(1, a.start_vpn, 0).has_value());
    // Unmapped VPN.
    EXPECT_FALSE(drv.migratePage(1, 0x9999, 1).has_value());
}

TEST(GpuDriverMigration, FreesTheOldFrame)
{
    MemoryMap map = map4();
    GpuDriver drv(map, barreParams());
    auto a = drv.gpuMalloc(1, 12);
    auto before = drv.allocator(1).freeFrames();
    drv.migratePage(1, a.start_vpn + 3, 2); // chiplet 1 -> 2
    EXPECT_EQ(drv.allocator(1).freeFrames(), before + 1);
}

/**
 * The key soundness property after migration: recomputing any remaining
 * member from any other remaining member still matches the page table.
 */
TEST(GpuDriverMigration, RemainingGroupStillCalculable)
{
    MemoryMap map = map4();
    GpuDriver drv(map, barreParams());
    auto a = drv.gpuMalloc(1, 12);
    drv.migratePage(1, a.start_vpn + 3, 3);

    PageTable &pt = drv.pageTable(1);
    const PecEntry &e = drv.pecEntries().front();
    std::vector<Vpn> rest{a.start_vpn + 0, a.start_vpn + 6,
                          a.start_vpn + 9};
    for (Vpn t : rest) {
        auto tp = pt.walk(t);
        for (Vpn q : rest) {
            if (q == t)
                continue;
            auto calc = pec::calcPending(e, t, tp->pfn(),
                                         tp->coalInfo(), q, map);
            ASSERT_TRUE(calc.has_value());
            EXPECT_EQ(calc->pfn, pt.walk(q)->pfn());
        }
        // The migrated page is never calculable.
        EXPECT_FALSE(pec::calcPending(e, t, tp->pfn(), tp->coalInfo(),
                                      a.start_vpn + 3, map)
                         .has_value());
    }
}

/** Property sweep: every allocation is walk-consistent per policy. */
class DriverPolicySweep
    : public ::testing::TestWithParam<MappingPolicyKind>
{};

TEST_P(DriverPolicySweep, CoalescedCalculationsMatchWalks)
{
    MemoryMap map = map4();
    DriverParams p = barreParams(2);
    p.policy = GetParam();
    GpuDriver drv(map, p);
    auto a = drv.gpuMalloc(1, 37, DataTraits{true, false});
    PageTable &pt = drv.pageTable(1);
    if (drv.pecEntries().empty())
        return;
    const PecEntry &e = drv.pecEntries().front();

    for (std::uint64_t i = 0; i < a.pages; ++i) {
        Vpn t = a.start_vpn + i;
        auto tp = pt.walk(t);
        ASSERT_TRUE(tp.has_value());
        if (!tp->coalInfo().coalesced())
            continue;
        for (Vpn q : pec::groupMembers(e, t, tp->coalInfo())) {
            if (q == t)
                continue;
            auto calc = pec::calcPending(e, t, tp->pfn(),
                                         tp->coalInfo(), q, map);
            ASSERT_TRUE(calc.has_value()) << "t=" << t << " q=" << q;
            EXPECT_EQ(calc->pfn, pt.walk(q)->pfn())
                << "t=" << t << " q=" << q;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, DriverPolicySweep,
                         ::testing::Values(MappingPolicyKind::lasp,
                                           MappingPolicyKind::chunking,
                                           MappingPolicyKind::coda,
                                           MappingPolicyKind::round_robin));
