/**
 * @file
 * Unit tests for the chiplet pipeline: TLB hierarchy, MSHR merging and
 * parking, data path (local/remote), sibling-L1 probing, shootdowns.
 */

#include <gtest/gtest.h>

#include "driver/gpu_driver.hh"
#include "gpu/chiplet.hh"
#include "gpu/translation_service.hh"

#include "stats_of.hh"

using namespace barre;

namespace
{

/** A rig with 2 chiplets and a plain ATS service. */
struct Rig
{
    EventQueue eq;
    MemoryMap map{2, 0x4000};
    Interconnect noc;
    Pcie pcie;
    Iommu iommu;
    GpuDriver drv;
    std::unique_ptr<Chiplet> chip0, chip1;
    AtsService svc;
    DataAlloc alloc;

    explicit Rig(ChipletParams cp = {})
        : noc(eq, "noc", 2), pcie(eq, "pcie"),
          iommu(eq, "iommu", IommuParams{}, pcie, map),
          drv(map, DriverParams{MappingPolicyKind::lasp, false, 1, 0.0, 7}),
          svc(iommu)
    {
        cp.cus = 2;
        chip0 = std::make_unique<Chiplet>(eq, "gpu0", 0, cp, map, noc);
        chip1 = std::make_unique<Chiplet>(eq, "gpu1", 1, cp, map, noc);
        chip0->setPeers({chip0.get(), chip1.get()});
        chip1->setPeers({chip0.get(), chip1.get()});
        chip0->setService(&svc);
        chip1->setService(&svc);
        alloc = drv.gpuMalloc(1, 8); // 4 pages per chiplet
        iommu.attachPageTable(drv.pageTable(1));
    }

    Addr
    addrOfPage(std::uint64_t page) const
    {
        return (alloc.start_vpn + page) << 12;
    }
};

} // namespace

TEST(Chiplet, ColdAccessWalksThenWarmHits)
{
    Rig rig;
    Tick cold = 0, warm = 0;
    rig.chip0->access(0, 1, rig.addrOfPage(0), [&] {
        cold = rig.eq.now();
        rig.chip0->access(0, 1, rig.addrOfPage(0) + 64, [&] {
            warm = rig.eq.now() - cold;
        });
    });
    rig.eq.run();
    EXPECT_GT(cold, 800u); // IOMMU round trip dominates
    EXPECT_LT(warm, 200u); // L1 TLB hit; new line fills from local DRAM
    EXPECT_EQ(statsOf(*rig.chip0).count("gpu0.l2tlb.misses"), 1u);
    EXPECT_EQ(statsOf(rig.iommu).count("iommu.ats_requests"), 1u);
}

TEST(Chiplet, L1HitAvoidsL2)
{
    Rig rig;
    int done = 0;
    rig.chip0->access(0, 1, rig.addrOfPage(0), [&] {
        ++done;
        rig.chip0->access(0, 1, rig.addrOfPage(0) + 128, [&] { ++done; });
    });
    rig.eq.run();
    EXPECT_EQ(done, 2);
    EXPECT_EQ(rig.chip0->l2TlbAccesses(), 1u); // second stayed in L1
}

TEST(Chiplet, MshrMergesSameVpn)
{
    Rig rig;
    int done = 0;
    // Two CUs miss on the same page concurrently.
    rig.chip0->access(0, 1, rig.addrOfPage(1), [&] { ++done; });
    rig.chip0->access(1, 1, rig.addrOfPage(1) + 64, [&] { ++done; });
    rig.eq.run();
    EXPECT_EQ(done, 2);
    // Merged at the MSHR.
    EXPECT_EQ(statsOf(rig.iommu).count("iommu.ats_requests"), 1u);
}

TEST(Chiplet, MshrParkingWhenFull)
{
    ChipletParams cp;
    cp.l2_tlb.mshrs = 2;
    Rig rig(cp);
    int done = 0;
    for (std::uint64_t p = 0; p < 6; ++p)
        rig.chip0->access(0, 1, rig.addrOfPage(p), [&] { ++done; });
    rig.eq.run();
    EXPECT_EQ(done, 6);
    EXPECT_GT(statsOf(*rig.chip0).count("gpu0.l2tlb.mshr_retries"), 0u);
    EXPECT_EQ(statsOf(rig.iommu).count("iommu.ats_requests"), 6u);
}

TEST(Chiplet, LocalVsRemoteDataLatency)
{
    Rig rig;
    // Page 0 is on chiplet 0 (local); page 4 on chiplet 1 (remote).
    Tick local = 0, remote = 0;
    rig.chip0->access(0, 1, rig.addrOfPage(0), [&] {
        Tick t0 = rig.eq.now();
        // t0 by value: the inner callback outlives this frame.
        rig.chip0->access(0, 1, rig.addrOfPage(0) + 4096 - 64, [&, t0] {
            local = rig.eq.now() - t0;
        });
    });
    rig.chip0->access(1, 1, rig.addrOfPage(4), [&] {
        Tick t0 = rig.eq.now();
        rig.chip0->access(1, 1, rig.addrOfPage(4) + 4096 - 64, [&, t0] {
            remote = rig.eq.now() - t0;
        });
    });
    rig.eq.run();
    EXPECT_GT(remote, local + 2 * 32); // two NoC hops
    EXPECT_GT(statsOf(*rig.chip0).count("gpu0.data.remote"), 0u);
    EXPECT_GT(statsOf(*rig.chip0).count("gpu0.data.local"), 0u);
}

TEST(Chiplet, SiblingL1ProbeServesPeerCu)
{
    ChipletParams cp;
    cp.sibling_l1_probe = true;
    Rig rig(cp);
    int done = 0;
    rig.chip0->access(0, 1, rig.addrOfPage(0), [&] {
        ++done;
        // CU 1 misses its own L1 but CU 0's L1 has the page.
        rig.chip0->access(1, 1, rig.addrOfPage(0) + 64, [&] { ++done; });
    });
    rig.eq.run();
    EXPECT_EQ(done, 2);
    EXPECT_EQ(statsOf(*rig.chip0).count("gpu0.l1tlb.sibling_hits"), 1u);
    EXPECT_EQ(rig.chip0->l2TlbAccesses(), 1u);
}

TEST(Chiplet, ShootdownForcesRetranslation)
{
    Rig rig;
    int done = 0;
    rig.chip0->access(0, 1, rig.addrOfPage(0), [&] {
        ++done;
        rig.chip0->shootdownVpns(1, {rig.alloc.start_vpn});
        rig.chip0->access(0, 1, rig.addrOfPage(0), [&] { ++done; });
    });
    rig.eq.run();
    EXPECT_EQ(done, 2);
    EXPECT_EQ(statsOf(rig.iommu).count("iommu.ats_requests"), 2u);
}

TEST(Chiplet, ValidatorSeesEveryFill)
{
    Rig rig;
    int checked = 0;
    rig.chip0->setValidator(
        [&](ProcessId pid, Vpn vpn, Pfn pfn, bool calculated) {
            EXPECT_EQ(pid, 1u);
            EXPECT_EQ(pfn, rig.drv.pageTable(pid).walk(vpn)->pfn());
            EXPECT_FALSE(calculated);
            ++checked;
        });
    int done = 0;
    for (std::uint64_t p = 0; p < 4; ++p)
        rig.chip0->access(0, 1, rig.addrOfPage(p), [&] { ++done; });
    rig.eq.run();
    EXPECT_EQ(done, 4);
    EXPECT_EQ(checked, 4);
}

TEST(Chiplet, SharedL2TlbServesBothChiplets)
{
    Rig rig;
    TlbParams tp;
    tp.entries = 2048;
    tp.ways = 16;
    tp.mshrs = 64;
    SharedTlbService shared(rig.eq, "shared", SharedTlbParams{}, tp, 2,
                            ChipletParams{}.retry_interval);
    shared.setService(&rig.svc);
    rig.chip0->connectSharedTlb(&shared);
    rig.chip1->connectSharedTlb(&shared);

    int done = 0;
    rig.chip0->access(0, 1, rig.addrOfPage(0), [&] {
        ++done;
        // Chiplet 1's CU finds the entry in the shared L2.
        rig.chip1->access(0, 1, rig.addrOfPage(0) + 64, [&] { ++done; });
    });
    rig.eq.run();
    EXPECT_EQ(done, 2);
    EXPECT_EQ(statsOf(rig.iommu).count("iommu.ats_requests"), 1u);
    EXPECT_EQ(statsOf(*rig.chip1).count("gpu1.l2tlb.misses"), 0u);
}
