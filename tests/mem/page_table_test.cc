/**
 * @file
 * Unit tests for the 4-level radix page table.
 */

#include <gtest/gtest.h>

#include <atomic>

#include "harness/pool.hh"
#include "mem/page_table.hh"
#include "sim/rng.hh"

using namespace barre;

TEST(PageTable, WalkOfUnmappedReturnsNothing)
{
    PageTable pt;
    EXPECT_FALSE(pt.walk(0x1234).has_value());
    EXPECT_EQ(pt.mappedPages(), 0u);
}

TEST(PageTable, MapThenWalk)
{
    PageTable pt(7);
    EXPECT_EQ(pt.pid(), 7u);
    pt.map(0x42, 0xABC);
    auto pte = pt.walk(0x42);
    ASSERT_TRUE(pte.has_value());
    EXPECT_EQ(pte->pfn(), 0xABCu);
    EXPECT_TRUE(pte->present());
    EXPECT_EQ(pt.mappedPages(), 1u);
}

TEST(PageTable, MapCarriesCoalInfo)
{
    PageTable pt;
    CoalInfo ci;
    ci.bitmap = 0b1111;
    ci.interOrder = 2;
    pt.map(0x10, 0x20, ci);
    EXPECT_EQ(pt.walk(0x10)->coalInfo(), ci);
}

TEST(PageTable, RemapOverwrites)
{
    PageTable pt;
    pt.map(0x10, 0x1);
    pt.map(0x10, 0x2);
    EXPECT_EQ(pt.walk(0x10)->pfn(), 0x2u);
    EXPECT_EQ(pt.mappedPages(), 1u);
}

TEST(PageTable, UnmapRemoves)
{
    PageTable pt;
    pt.map(0x10, 0x1);
    EXPECT_TRUE(pt.unmap(0x10));
    EXPECT_FALSE(pt.walk(0x10).has_value());
    EXPECT_EQ(pt.mappedPages(), 0u);
    EXPECT_FALSE(pt.unmap(0x10));
    EXPECT_FALSE(pt.unmap(0x999));
}

TEST(PageTable, UpdateCoalInfoInPlace)
{
    PageTable pt;
    CoalInfo ci;
    ci.bitmap = 0b0011;
    pt.map(0x10, 0x1, ci);
    CoalInfo none;
    EXPECT_TRUE(pt.updateCoalInfo(0x10, none));
    EXPECT_EQ(pt.walk(0x10)->coalInfo(), none);
    EXPECT_EQ(pt.walk(0x10)->pfn(), 0x1u);
    EXPECT_FALSE(pt.updateCoalInfo(0x999, none));
}

TEST(PageTable, NeighbouringVpnsShareLeafNode)
{
    PageTable pt;
    pt.map(0x100, 0x1);
    std::uint64_t nodes = pt.nodeCount();
    pt.map(0x101, 0x2);
    EXPECT_EQ(pt.nodeCount(), nodes); // same leaf
}

TEST(PageTable, DistantVpnsAllocateSeparateSubtrees)
{
    PageTable pt;
    pt.map(0x0, 0x1);
    std::uint64_t nodes = pt.nodeCount();
    // A different top-level slot (VPNs are 36-bit: 4 levels x 9 bits).
    pt.map(std::uint64_t{1} << 30, 0x2);
    EXPECT_GT(pt.nodeCount(), nodes);
    EXPECT_EQ(pt.walk(std::uint64_t{1} << 30)->pfn(), 0x2u);
    EXPECT_EQ(pt.walk(0x0)->pfn(), 0x1u);
}

TEST(PageTable, RandomizedMapWalkConsistency)
{
    PageTable pt;
    Rng rng(123);
    std::vector<std::pair<Vpn, Pfn>> mappings;
    for (int i = 0; i < 2000; ++i) {
        Vpn vpn = rng.below(std::uint64_t{1} << 36);
        Pfn pfn = rng.below(std::uint64_t{1} << 30);
        pt.map(vpn, pfn);
        mappings.emplace_back(vpn, pfn);
    }
    // Later map of same vpn wins; walk everything backwards.
    for (auto it = mappings.rbegin(); it != mappings.rend(); ++it) {
        auto pte = pt.walk(it->first);
        ASSERT_TRUE(pte.has_value());
    }
}

TEST(PageTable, WalksWhileAnotherThreadMaps)
{
    // One writer installs mappings (building new subtrees as it goes)
    // while a second thread walks: a walk of a published mapping finds
    // it, and a walk racing its install sees nothing or the whole PTE,
    // never a torn one. Run under the tsan preset, this is the race
    // check for chiplet-side walks during host-side faults.
    constexpr std::uint64_t n = 4000;
    auto vpnOf = [](std::uint64_t i) {
        return Vpn{(i * 37) ^ ((i & 7) << 27)};
    };
    auto pfnOf = [](std::uint64_t i) { return Pfn{i * 3 + 1}; };
    PageTable pt;
    std::atomic<std::uint64_t> published{0};
    std::atomic<std::uint64_t> bad{0};
    runOnThreads(2, [&](std::size_t t) {
        if (t == 0) {
            for (std::uint64_t i = 0; i < n; ++i) {
                CoalInfo ci;
                ci.bitmap = 0b11;
                ci.interOrder = static_cast<std::uint8_t>(i & 1);
                pt.map(vpnOf(i), pfnOf(i), ci);
                published.store(i + 1, std::memory_order_release);
            }
            return;
        }
        std::uint64_t seen = 0;
        while (seen < n) {
            seen = published.load(std::memory_order_acquire);
            for (std::uint64_t i = 0; i < n; ++i) {
                auto pte = pt.walk(vpnOf(i));
                const bool whole = pte && pte->pfn() == pfnOf(i) &&
                                   pte->coalInfo().interOrder == (i & 1);
                if (i < seen ? !whole : (pte && !whole))
                    bad.fetch_add(1, std::memory_order_relaxed);
            }
        }
    });
    EXPECT_EQ(bad.load(), 0u);
    EXPECT_EQ(pt.mappedPages(), n);
}
