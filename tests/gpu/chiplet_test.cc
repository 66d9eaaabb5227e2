/**
 * @file
 * Unit tests for the chiplet pipeline: TLB hierarchy, MSHR merging and
 * parking (and the batched wake of a parked herd), unsolicited L2 fills
 * (IOMMU pushes and Valkyrie prefetches), data path (local/remote),
 * sibling-L1 probing, shootdowns.
 */

#include <gtest/gtest.h>

#include "driver/gpu_driver.hh"
#include "gpu/chiplet.hh"
#include "gpu/translation_service.hh"
#include "harness/domain_scheduler.hh"
#include "harness/system.hh"

#include "gpu/l2_stage_reference.hh"
#include "stats_of.hh"

using namespace barre;

namespace
{

/** A rig with 2 chiplets, a plain ATS service and @p pages of data. */
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

    explicit Rig(ChipletParams cp = {}, std::uint64_t pages = 8)
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
        alloc = drv.gpuMalloc(1, pages); // striped over both chiplets
        iommu.attachPageTable(drv.pageTable(1));
    }

    Addr
    addrOfPage(std::uint64_t page) const
    {
        return (alloc.start_vpn + page) << 12;
    }
};

/** Completions of a herd, in order, folded into an FNV-1a digest. */
struct HerdTrace
{
    std::uint64_t digest = 0xcbf29ce484222325ull;
    std::uint64_t done = 0;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            digest ^= (v >> (8 * i)) & 0xff;
            digest *= 0x100000001b3ull;
        }
    }
};

/** The response the IOMMU would push for @p page of the rig's buffer. */
AtsResponse
pushFor(Rig &rig, std::uint64_t page)
{
    AtsResponse resp;
    resp.pid = 1;
    resp.vpn = rig.alloc.start_vpn + page;
    const auto pte = rig.drv.pageTable(1).walk(resp.vpn);
    resp.pfn = pte->pfn();
    resp.coal = pte->coalInfo();
    return resp;
}

constexpr std::uint64_t kHerdPages = 16;
constexpr std::uint64_t kHerdAccesses = 64;

/**
 * Start kHerdAccesses accesses at tick 0, round-robin over @p chips and
 * both CUs of each, stepping through kHerdPages pages so each page is
 * asked for four times. With a 2-entry MSHR file most of them park;
 * released herds re-run the L2 stage and hit, merge onto a same-VPN
 * miss, or park again. Every completion records (index, tick).
 */
HerdTrace
runHerd(Rig &rig, const std::vector<Chiplet *> &chips)
{
    HerdTrace t;
    for (std::uint64_t i = 0; i < kHerdAccesses; ++i) {
        Chiplet *chip = chips[i % chips.size()];
        const CuId cu = (i / chips.size()) % 2;
        const Addr va = rig.addrOfPage((i * 7) % kHerdPages) + 64 * (i % 4);
        chip->access(cu, 1, va, [&t, &rig, i] {
            t.add(i);
            t.add(rig.eq.now());
            ++t.done;
        });
    }
    rig.eq.run();
    return t;
}

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

// The completion order and ticks of a parked herd match the values the
// per-request retry code (one retry event and one lookup event per
// parked request) produced, with fewer events fired.
TEST(Chiplet, ParkedHerdMatchesPerRequestReference)
{
    ChipletParams cp;
    cp.l2_tlb.mshrs = 2;
    Rig rig(cp, kHerdPages);
    const HerdTrace t = runHerd(rig, {rig.chip0.get()});
    EXPECT_EQ(t.done, kHerdAccesses);
    EXPECT_EQ(t.digest, 0xc7cb39677d209fc7ull);
    EXPECT_EQ(statsOf(*rig.chip0).count("gpu0.l2tlb.mshr_retries"), 224u);
    EXPECT_EQ(statsOf(rig.iommu).count("iommu.ats_requests"), 16u);
    EXPECT_LT(rig.eq.fired(), 728u); // per-request retries fired 728
}

// The same for the package-shared L2 TLB, whose parked requests come
// from both chiplets and are released by one host-side batch.
TEST(Chiplet, SharedParkedHerdMatchesPerRequestReference)
{
    Rig rig(ChipletParams{}, kHerdPages);
    TlbParams tp;
    tp.entries = 2048;
    tp.ways = 16;
    tp.mshrs = 2;
    SharedTlbService shared(rig.eq, "shared", SharedTlbParams{}, tp, 2,
                            ChipletParams{}.retry_interval);
    shared.setService(&rig.svc);
    rig.chip0->connectSharedTlb(&shared);
    rig.chip1->connectSharedTlb(&shared);

    const HerdTrace t = runHerd(rig, {rig.chip0.get(), rig.chip1.get()});
    EXPECT_EQ(t.done, kHerdAccesses);
    EXPECT_EQ(t.digest, 0x7e69e9751e51329full);
    EXPECT_EQ(statsOf(*rig.chip0).count("gpu0.l2tlb.mshr_retries"), 112u);
    EXPECT_EQ(statsOf(*rig.chip1).count("gpu1.l2tlb.mshr_retries"), 112u);
    EXPECT_EQ(statsOf(rig.iommu).count("iommu.ats_requests"), 16u);
    EXPECT_LT(rig.eq.fired(), 648u); // per-request retries fired 648
}

namespace
{

using test::RefL2Stage;
using test::StageOp;
using test::StageScript;
using test::StageTrace;

StageOp
lookupAt(Tick at, Vpn vpn)
{
    return StageOp{StageOp::Kind::lookup, at, 0, 1, vpn};
}

/**
 * Run @p script through L2TlbStage and through the full re-run
 * reference; both must do the same. @return the trace, and the free
 * MSHR slots the reference's batches started with. The tests below pin
 * the digests the stage gave while its batches still re-ran every
 * parked request.
 */
std::pair<StageTrace, std::vector<std::size_t>>
runBoth(const StageScript &script)
{
    std::vector<std::size_t> free_slots;
    const StageTrace ref = test::runStageScript<RefL2Stage>(
        script, test::NoHook{},
        [&](RefL2Stage &s) { free_slots = s.batchFreeSlots(); });
    const StageTrace got = test::runStageScript<L2TlbStage>(
        script, [](L2TlbStage &s) { s.auditParkedIndex(); });
    EXPECT_EQ(got, ref);
    return {got, free_slots};
}

/** The tick lookup op @p op 's continuation fired at, or max_tick. */
Tick
firedAt(const StageTrace &t, std::uint64_t op)
{
    for (const StageTrace::Fired &f : t.fired)
        if (f.op == op)
            return f.tick;
    return max_tick;
}

} // namespace

// Two misses fill a 2-entry MSHR file, two more park. The first fill
// wakes them, but a newcomer's lookup takes the freed slot before the
// batch runs, so the batch finds the file full and both re-park.
TEST(Chiplet, ParkedBatchArrivingToFullFileMatchesReference)
{
    StageScript s;
    for (Vpn v = 1; v <= 4; ++v)
        s.ops.push_back(lookupAt(0, v));
    s.ops.push_back(lookupAt(115, 5)); // steps at 125: the freed slot
    s.fill_delays = {100, 300, 100};
    const auto [t, free_slots] = runBoth(s);
    ASSERT_FALSE(free_slots.empty());
    EXPECT_EQ(free_slots[0], 0u);
    EXPECT_EQ(t.digest(), 0xb61323c2abffde83ull);
}

// Both in-flight misses complete before the first batch runs, so it
// starts with two free slots: two requests launch, a same-page request
// behind them merges onto the first, and the rest re-park.
TEST(Chiplet, ParkedBatchWithTwoFreeSlotsMatchesReference)
{
    StageScript s;
    for (Vpn v : {1, 2, 3, 4, 5, 3, 6})
        s.ops.push_back(lookupAt(0, v));
    s.fill_delays = {100, 105};
    const auto [t, free_slots] = runBoth(s);
    ASSERT_FALSE(free_slots.empty());
    EXPECT_EQ(free_slots[0], 2u);
    EXPECT_EQ(t.digest(), 0xdb64c47a17202360ull);
}

// A push lands on a parked request's page. Nothing wakes it then: it
// hits at the next completion's batch, which a newcomer has already
// left without a free slot.
TEST(Chiplet, UnsolicitedFillHitsAtNextBatchMatchesReference)
{
    StageScript s;
    for (Vpn v = 1; v <= 4; ++v)
        s.ops.push_back(lookupAt(0, v));
    s.ops.push_back(StageOp{StageOp::Kind::unsolicited, 50, 0, 1, 3});
    s.ops.push_back(lookupAt(115, 5));
    s.fill_delays = {100, 300, 100};
    const auto [t, free_slots] = runBoth(s);
    ASSERT_FALSE(free_slots.empty());
    EXPECT_EQ(free_slots[0], 0u);
    // The first fill lands at 110; its batch runs 20 + 10 cycles later.
    EXPECT_EQ(firedAt(t, 2), 140u);
    EXPECT_EQ(t.digest(), 0x4b3a7cd4cab19548ull);
}

// An IOMMU push lands in the chiplet's own L2 TLB without completing an
// MSHR (the validator sees every completion and stays silent), and the
// next demand access to that page hits there without an ATS.
TEST(Chiplet, UnsolicitedFillLandsInPrivateL2)
{
    Rig rig;
    int completions = 0;
    rig.chip0->setValidator(
        [&](ProcessId, Vpn, Pfn, bool) { ++completions; });
    const AtsResponse push = pushFor(rig, 2);
    AtsResponse unmapped = pushFor(rig, 3);
    unmapped.pfn = invalid_pfn;
    rig.chip0->unsolicitedFill(push);
    rig.chip0->unsolicitedFill(unmapped); // nothing to install
    rig.eq.run();
    const auto te = rig.chip0->l2Tlb().peek(1, push.vpn);
    ASSERT_TRUE(te.has_value());
    EXPECT_EQ(te->pfn, push.pfn);
    EXPECT_FALSE(rig.chip0->l2Tlb().peek(1, unmapped.vpn).has_value());
    EXPECT_FALSE(rig.chip1->l2Tlb().peek(1, push.vpn).has_value());

    int done = 0;
    rig.chip0->access(0, 1, rig.addrOfPage(2), [&] { ++done; });
    rig.eq.run();
    EXPECT_EQ(done, 1);
    EXPECT_EQ(completions, 0);
    EXPECT_EQ(rig.chip0->l2TlbAccesses(), 1u);
    EXPECT_EQ(statsOf(*rig.chip0).count("gpu0.l2tlb.misses"), 0u);
    EXPECT_EQ(statsOf(rig.iommu).count("iommu.ats_requests"), 0u);
}

// A push to one chiplet crosses into the package-shared L2 TLB, where
// demand accesses from both chiplets then hit without an ATS.
TEST(Chiplet, UnsolicitedFillLandsInSharedL2)
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

    const AtsResponse push = pushFor(rig, 5);
    rig.chip1->unsolicitedFill(push);
    EXPECT_FALSE(shared.tlb().peek(1, push.vpn).has_value()); // in flight
    rig.eq.run();
    const auto te = shared.tlb().peek(1, push.vpn);
    ASSERT_TRUE(te.has_value());
    EXPECT_EQ(te->pfn, push.pfn);

    int done = 0;
    rig.chip0->access(0, 1, rig.addrOfPage(5), [&] { ++done; });
    rig.chip1->access(1, 1, rig.addrOfPage(5) + 64, [&] { ++done; });
    rig.eq.run();
    EXPECT_EQ(done, 2);
    EXPECT_EQ(statsOf(*rig.chip0).count("gpu0.l2tlb.misses"), 0u);
    EXPECT_EQ(statsOf(*rig.chip1).count("gpu1.l2tlb.misses"), 0u);
    EXPECT_EQ(statsOf(rig.iommu).count("iommu.ats_requests"), 0u);
}

namespace
{

/**
 * Under Valkyrie, two sequential misses from chiplet 0 (pages 0 and 1 of
 * a fresh buffer) prefetch page 2 into the L2 TLB chiplet 0 uses.
 * @return the prefetched page's VPN.
 */
Vpn
prefetchThirdPage(System &sys)
{
    const DataAlloc alloc = sys.driver().gpuMalloc(1, 8);
    sys.iommu().attachPageTable(sys.driver().pageTable(1));
    int done = 0;
    sys.chiplet(0).access(0, 1, alloc.start_vpn << 12, [&] { ++done; });
    sys.chiplet(0).access(1, 1, (alloc.start_vpn + 1) << 12,
                          [&] { ++done; });
    DomainScheduler::run(sys.eventQueue(), max_tick, 1);
    EXPECT_EQ(done, 2);
    EXPECT_EQ(sys.stats().count("iommu.ats_requests"), 3u);
    return alloc.start_vpn + 2;
}

} // namespace

TEST(Chiplet, ValkyriePrefetchFillLandsInPrivateL2)
{
    SystemConfig cfg = SystemConfig::valkyrieCfg();
    cfg.validate_translations = true;
    System sys(cfg);
    const Vpn vpn = prefetchThirdPage(sys);
    EXPECT_TRUE(sys.chiplet(0).l2Tlb().peek(1, vpn).has_value());
    EXPECT_FALSE(sys.chiplet(1).l2Tlb().peek(1, vpn).has_value());

    int done = 0;
    sys.chiplet(0).access(2, 1, vpn << 12, [&] { ++done; });
    DomainScheduler::run(sys.eventQueue(), max_tick, 1);
    EXPECT_EQ(done, 1);
    EXPECT_EQ(sys.stats().count("gpu0.l2tlb.misses"), 2u);
    EXPECT_EQ(sys.stats().count("iommu.ats_requests"), 3u);
}

TEST(Chiplet, ValkyriePrefetchFillLandsInSharedL2)
{
    SystemConfig cfg = SystemConfig::valkyrieCfg();
    cfg.shared_l2_tlb = true;
    cfg.validate_translations = true;
    System sys(cfg);
    const Vpn vpn = prefetchThirdPage(sys);
    EXPECT_TRUE(sys.sharedTlb()->tlb().peek(1, vpn).has_value());

    int done = 0;
    sys.chiplet(0).access(2, 1, vpn << 12, [&] { ++done; });
    sys.chiplet(1).access(0, 1, vpn << 12, [&] { ++done; });
    DomainScheduler::run(sys.eventQueue(), max_tick, 1);
    EXPECT_EQ(done, 2);
    EXPECT_EQ(sys.stats().count("gpu0.l2tlb.misses"), 2u);
    EXPECT_EQ(sys.stats().count("gpu1.l2tlb.misses"), 0u);
    EXPECT_EQ(sys.stats().count("iommu.ats_requests"), 3u);
}
