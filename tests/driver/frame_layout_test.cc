/**
 * @file
 * Pins the driver's frame layout under tenant churn.
 *
 * A standalone GpuDriver replays interleaved gpuMalloc/processExit calls
 * for the tenants of poisson:16:2:7 at a small scale. Every mapping a
 * gpuMalloc makes, (pid, vpn, pfn, CoalInfo), is folded into a digest
 * that must equal the value recorded with the frame-at-a-time first-fit
 * search. A faster common-free search must place every group on the
 * same frames; this test is where a placement change shows.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "driver/gpu_driver.hh"
#include "sim/rng.hh"
#include "workloads/scenario.hh"

using namespace barre;

namespace
{

/** Buffer sizes are divided by this to keep the replay small. */
constexpr std::uint64_t kShrink = 32;

struct Digest
{
    std::uint64_t h = 0xcbf29ce484222325ull; // FNV-1a 64

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
};

/**
 * Replay the churn sequence and return the mapping digest. After tenant
 * i allocates all its buffers, each older live tenant exits with
 * probability 1/2 (seeded), so frames free up below and between the
 * live tenants' groups. The rest exit at the end, in pid order.
 */
std::uint64_t
replayChurn(double fragmentation)
{
    MemoryMap map(4, 0x4000);
    DriverParams params;
    params.policy = MappingPolicyKind::lasp;
    params.barre = true;
    params.merge_limit = 2;
    params.fragmentation = fragmentation;
    GpuDriver drv(map, params);

    std::vector<std::uint64_t> free_at_start;
    for (ChipletId c = 0; c < map.numChiplets(); ++c)
        free_at_start.push_back(drv.allocator(c).freeFrames());

    const auto tenants = ScenarioSpec::poisson(16, 2, 7).resolve();
    Digest d;
    Rng exit_rng(11);
    std::vector<bool> live(tenants.size(), false);
    for (std::size_t i = 0; i < tenants.size(); ++i) {
        const auto pid = static_cast<ProcessId>(i + 1);
        for (const BufferSpec &b : tenants[i].app.buffers) {
            const std::uint64_t pages =
                std::max<std::uint64_t>((b.bytes / kShrink + 4095) / 4096, 1);
            DataAlloc a = drv.gpuMalloc(pid, pages, b.traits);
            PageTable &pt = drv.pageTable(pid);
            for (std::uint64_t p = 0; p < a.pages; ++p) {
                auto pte = pt.walk(a.start_vpn + p);
                EXPECT_TRUE(pte.has_value());
                if (!pte)
                    continue;
                CoalInfo ci = pte->coalInfo();
                d.add(pid);
                d.add(a.start_vpn + p);
                d.add(pte->pfn());
                d.add(ci.bitmap);
                d.add(ci.interOrder);
                d.add(ci.intraOrder);
                d.add(ci.numMerged);
                d.add(ci.merged);
            }
        }
        live[i] = true;
        for (std::size_t j = 0; j < i; ++j) {
            if (live[j] && exit_rng.chance(0.5)) {
                drv.processExit(static_cast<ProcessId>(j + 1));
                live[j] = false;
            }
        }
    }
    for (std::size_t j = 0; j < tenants.size(); ++j)
        if (live[j])
            drv.processExit(static_cast<ProcessId>(j + 1));

    for (ChipletId c = 0; c < map.numChiplets(); ++c)
        EXPECT_EQ(drv.allocator(c).freeFrames(), free_at_start[c]) << c;
    d.add(drv.totalMappedPages());
    d.add(drv.coalescedPages());
    d.add(drv.fallbackPages());
    return d.h;
}

} // namespace

TEST(FrameLayout, ChurnDigestWithoutFragmentation)
{
    EXPECT_EQ(replayChurn(0.0), 0x20ae7f78c8d28d2full);
}

TEST(FrameLayout, ChurnDigestWithFragmentation)
{
    EXPECT_EQ(replayChurn(0.3), 0x4c69030fac56e52bull);
}
