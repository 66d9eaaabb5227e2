/**
 * @file
 * Parameterized property sweep over the driver's allocation space:
 * for every (chiplet count, merge width, policy, fragmentation) combo,
 * the master soundness invariants of calculation-based translation
 * must hold.
 */

#include <gtest/gtest.h>

#include <set>

#include "driver/gpu_driver.hh"

#include "stats_of.hh"

using namespace barre;

namespace
{

struct SweepCase
{
    std::uint32_t chiplets;
    std::uint32_t merge;
    MappingPolicyKind policy;
    double fragmentation;
};

std::string
caseName(const ::testing::TestParamInfo<SweepCase> &info)
{
    const SweepCase &c = info.param;
    return std::to_string(c.chiplets) + "chip_" +
           std::to_string(c.merge) + "merge_" +
           (c.policy == MappingPolicyKind::lasp        ? "lasp"
            : c.policy == MappingPolicyKind::coda      ? "coda"
            : c.policy == MappingPolicyKind::chunking  ? "chunk"
                                                       : "rr") +
           (c.fragmentation > 0 ? "_frag" : "");
}

} // namespace

class DriverSweep : public ::testing::TestWithParam<SweepCase>
{};

TEST_P(DriverSweep, AllocationInvariantsHold)
{
    const SweepCase &c = GetParam();
    MemoryMap map(c.chiplets, 0x8000);
    DriverParams dp;
    dp.policy = c.policy;
    dp.barre = true;
    dp.merge_limit = c.merge;
    dp.fragmentation = c.fragmentation;
    GpuDriver drv(map, dp);

    // A few buffers of awkward sizes, one irregular.
    std::vector<DataAlloc> allocs;
    allocs.push_back(drv.gpuMalloc(1, 61));
    allocs.push_back(drv.gpuMalloc(1, 128, DataTraits{true, false}));
    allocs.push_back(drv.gpuMalloc(1, 7));

    PageTable &pt = drv.pageTable(1);
    std::set<Pfn> frames_seen;

    for (const auto &a : allocs) {
        for (std::uint64_t p = 0; p < a.pages; ++p) {
            Vpn vpn = a.start_vpn + p;
            auto pte = pt.walk(vpn);
            // 1. Every page is mapped...
            ASSERT_TRUE(pte.has_value());
            // 2. ...on the chiplet the layout says...
            EXPECT_EQ(map.chipletOf(pte->pfn()),
                      a.layout.chipletOf(vpn));
            // 3. ...on a frame no other page uses.
            EXPECT_TRUE(frames_seen.insert(pte->pfn()).second);
        }
    }

    // 4. Every coalesced page's group members are calculable and the
    //    calculation equals the page table (the core invariant).
    for (const auto &a : allocs) {
        const PecEntry *entry = nullptr;
        for (const auto &e : drv.pecEntries())
            if (e.contains(1, a.start_vpn))
                entry = &e;
        if (!entry)
            continue;
        for (std::uint64_t p = 0; p < a.pages; ++p) {
            Vpn vpn = a.start_vpn + p;
            auto pte = pt.walk(vpn);
            CoalInfo ci = pte->coalInfo();
            if (!ci.coalesced())
                continue;
            for (Vpn q : pec::groupMembers(*entry, vpn, ci)) {
                if (q == vpn)
                    continue;
                auto calc = pec::calcPending(*entry, vpn, pte->pfn(),
                                             ci, q, map);
                ASSERT_TRUE(calc.has_value());
                EXPECT_EQ(calc->pfn, pt.walk(q)->pfn())
                    << "vpn " << vpn << " -> " << q;
            }
        }
    }

    // 5. Merged groups only exist where legal.
    if (c.chiplets > 4 || c.merge == 1) {
        EXPECT_EQ(statsOf(drv).count("driver.merged_pages"), 0u);
    }

    // 6. Frame accounting is conserved.
    std::uint64_t free_total = 0;
    for (std::uint32_t ch = 0; ch < c.chiplets; ++ch)
        free_total += drv.allocator(ch).freeFrames();
    std::uint64_t fragmented = 0;
    if (c.fragmentation > 0) {
        // Fragmentation pre-claims frames; just check nothing leaked
        // below the mapped count.
        fragmented = 1;
    }
    EXPECT_LE(drv.totalMappedPages() + free_total,
              std::uint64_t{c.chiplets} * 0x8000 + fragmented * 0);
}

INSTANTIATE_TEST_SUITE_P(
    Combos, DriverSweep,
    ::testing::Values(
        SweepCase{2, 1, MappingPolicyKind::lasp, 0.0},
        SweepCase{2, 2, MappingPolicyKind::lasp, 0.0},
        SweepCase{4, 1, MappingPolicyKind::lasp, 0.0},
        SweepCase{4, 2, MappingPolicyKind::lasp, 0.0},
        SweepCase{4, 4, MappingPolicyKind::lasp, 0.0},
        SweepCase{4, 2, MappingPolicyKind::coda, 0.0},
        SweepCase{4, 2, MappingPolicyKind::chunking, 0.0},
        SweepCase{4, 1, MappingPolicyKind::round_robin, 0.0},
        SweepCase{4, 2, MappingPolicyKind::lasp, 0.3},
        SweepCase{4, 4, MappingPolicyKind::lasp, 0.6},
        SweepCase{8, 1, MappingPolicyKind::lasp, 0.0},
        SweepCase{8, 2, MappingPolicyKind::lasp, 0.0}, // merge disabled
        SweepCase{8, 1, MappingPolicyKind::round_robin, 0.2},
        SweepCase{16, 1, MappingPolicyKind::lasp, 0.0},
        SweepCase{16, 1, MappingPolicyKind::chunking, 0.1}),
    caseName);
