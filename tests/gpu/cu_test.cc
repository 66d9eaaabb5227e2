/**
 * @file
 * Unit tests for the CU request-generator model.
 */

#include <gtest/gtest.h>

#include "driver/gpu_driver.hh"
#include "gpu/cu.hh"
#include "gpu/translation_service.hh"

using namespace barre;

namespace
{

struct Rig
{
    EventQueue eq;
    MemoryMap map{2, 0x4000};
    Interconnect noc;
    Pcie pcie;
    Iommu iommu;
    GpuDriver drv;
    std::unique_ptr<Chiplet> chip;
    AtsService svc;
    DataAlloc alloc;

    Rig()
        : noc(eq, "noc", 2), pcie(eq, "pcie"),
          iommu(eq, "iommu", IommuParams{}, pcie, map),
          drv(map,
              DriverParams{MappingPolicyKind::lasp, false, 1, 0.0, 7}),
          svc(iommu)
    {
        ChipletParams cp;
        cp.cus = 4;
        chip = std::make_unique<Chiplet>(eq, "gpu0", 0, cp, map, noc);
        chip->setPeers({chip.get(), chip.get()});
        chip->setService(&svc);
        alloc = drv.gpuMalloc(1, 8);
        iommu.attachPageTable(drv.pageTable(1));
    }

    std::vector<AccessDesc>
    stream(std::size_t n) const
    {
        std::vector<AccessDesc> s;
        for (std::size_t i = 0; i < n; ++i)
            s.push_back({(alloc.start_vpn << 12) + i * 64, 1});
        return s;
    }
};

} // namespace

TEST(Cu, EmptyStreamCompletesImmediately)
{
    Rig rig;
    Cu cu(rig.eq, "cu", *rig.chip, 0, CuParams{});
    bool done = false;
    cu.start([&] { done = true; });
    EXPECT_TRUE(done);
    EXPECT_EQ(cu.accessesIssued(), 0u);
}

TEST(Cu, DrainsWholeStreamExactlyOnce)
{
    Rig rig;
    Cu cu(rig.eq, "cu", *rig.chip, 0, CuParams{4, 4});
    cu.addStream(rig.stream(37));
    bool done = false;
    cu.start([&] { done = true; });
    rig.eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(cu.accessesIssued(), 37u);
    EXPECT_EQ(cu.streamLength(), 37u);
}

TEST(Cu, MlpBoundsOutstandingButAllComplete)
{
    Rig rig;
    Cu cu1(rig.eq, "cu1", *rig.chip, 0, CuParams{1, 4});
    cu1.addStream(rig.stream(16));
    Tick t1 = 0;
    cu1.start([&] { t1 = rig.eq.now(); });
    rig.eq.run();

    Rig rig2;
    Cu cu4(rig2.eq, "cu4", *rig2.chip, 0, CuParams{8, 4});
    cu4.addStream(rig2.stream(16));
    Tick t4 = 0;
    cu4.start([&] { t4 = rig2.eq.now(); });
    rig2.eq.run();

    // More memory-level parallelism finishes the same stream faster.
    EXPECT_LT(t4, t1);
}

TEST(Cu, MlpLargerThanStreamIsSafe)
{
    Rig rig;
    Cu cu(rig.eq, "cu", *rig.chip, 0, CuParams{16, 1});
    cu.addStream(rig.stream(3));
    int done = 0;
    cu.start([&] { ++done; });
    rig.eq.run();
    EXPECT_EQ(done, 1); // completion fires exactly once
    EXPECT_EQ(cu.accessesIssued(), 3u);
}

TEST(Cu, MultipleStreamsConcatenate)
{
    Rig rig;
    Cu cu(rig.eq, "cu", *rig.chip, 0, CuParams{2, 2});
    cu.addStream(rig.stream(5));
    cu.addStream(rig.stream(7));
    bool done = false;
    cu.start([&] { done = true; });
    rig.eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(cu.accessesIssued(), 12u);
}

TEST(Cu, IssueGapSpacesAccesses)
{
    // With mlp 1 and a large gap, runtime scales with the gap.
    Rig rig;
    Cu cu(rig.eq, "cu", *rig.chip, 0, CuParams{1, 100});
    cu.addStream(rig.stream(4));
    Tick end = 0;
    cu.start([&] { end = rig.eq.now(); });
    rig.eq.run();
    EXPECT_GT(end, 3u * 100u);
}

TEST(Cu, JobsLaunchedAtDifferentTicksGetTheirOwnSlots)
{
    Rig rig;
    Cu cu(rig.eq, "cu", *rig.chip, 0, CuParams{2, 4});
    int done_a = 0;
    int done_b = 0;
    cu.launchJob(rig.stream(9), [&] { ++done_a; });
    // Both of the first job's slots issue at once.
    EXPECT_EQ(cu.accessesIssued(), 2u);

    std::uint64_t before_b = 0;
    std::uint64_t after_b = 0;
    rig.eq.schedule(50, [&] {
        // The first job is still in flight, and the second issues on
        // two slots of its own without waiting for it.
        EXPECT_EQ(done_a, 0);
        before_b = cu.accessesIssued();
        cu.launchJob(rig.stream(5), [&] { ++done_b; });
        after_b = cu.accessesIssued();
    });
    rig.eq.run();

    EXPECT_EQ(after_b, before_b + 2);
    EXPECT_EQ(done_a, 1);
    EXPECT_EQ(done_b, 1);
    EXPECT_EQ(cu.accessesIssued(), 14u);
}

TEST(Cu, JobLaunchedAfterAnotherDrainedCompletesOnce)
{
    Rig rig;
    Cu cu(rig.eq, "cu", *rig.chip, 0, CuParams{4, 1});
    int done_a = 0;
    int done_b = 0;
    Tick end_a = 0;
    cu.launchJob(rig.stream(3), [&] {
        ++done_a;
        end_a = rig.eq.now();
        // Relaunching from the completion itself: the CU keeps no
        // per-CU issue state that a drained job could leave behind.
        cu.launchJob(rig.stream(6), [&] { ++done_b; });
    });
    rig.eq.run();

    EXPECT_GT(end_a, 0u);
    EXPECT_EQ(done_a, 1);
    EXPECT_EQ(done_b, 1);
    EXPECT_EQ(cu.accessesIssued(), 9u);
}
