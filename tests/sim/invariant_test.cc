/**
 * @file
 * Tests for the debug invariant layer (sim/invariant.hh): the audits
 * pass on healthy state and, crucially, *fire* when state is corrupted
 * behind the bookkeeping's back — a dead assertion is worse than none.
 *
 * The audit entry points are compiled unconditionally so these tests
 * run in every build flavor; only the automatic call sites and the
 * cuckoo filter's shadow tracking are gated by BARRE_CHECK_INVARIANTS.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/filter_engine.hh"
#include "driver/gpu_driver.hh"
#include "filters/cuckoo_filter.hh"
#include "sim/event_queue.hh"
#include "sim/invariant.hh"

using namespace barre;

namespace
{

CuckooFilterParams
smallFilter()
{
    CuckooFilterParams p;
    p.rows = 16;
    p.ways = 4;
    return p;
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

TEST(CuckooAudit, HealthyFilterPasses)
{
    CuckooFilter f(smallFilter());
    for (std::uint64_t i = 1; i <= 40; ++i)
        f.insert(i * 0x9e37);
    for (std::uint64_t i = 1; i <= 10; ++i)
        f.erase(i * 0x9e37);
    EXPECT_NO_THROW(f.auditNoFalseNegatives());
}

TEST(CuckooAudit, CorruptedBucketFires)
{
    CuckooFilter f(smallFilter());
    for (std::uint64_t i = 1; i <= 16; ++i)
        ASSERT_TRUE(f.insert(i * 0x51ed));
    ASSERT_EQ(f.size(), 16u);
    // Wipe every slot behind the occupancy/shadow bookkeeping: the
    // audit must notice the table no longer backs its own counters.
    for (std::uint32_t b = 0; b < smallFilter().rows; ++b)
        for (std::uint32_t w = 0; w < smallFilter().ways; ++w)
            f.debugCorruptSlot(b, w);
    EXPECT_THROW(f.auditNoFalseNegatives(), std::logic_error);
}

namespace
{

/** A Table II-shaped but 16-row filter driven past capacity: every
 *  slot holds a fingerprint. */
CuckooFilter
saturatedFilter()
{
    CuckooFilter f(smallFilter());
    for (std::uint64_t i = 1; i <= 300; ++i)
        f.insert(i * 0x6b43);
    return f;
}

/** The audit's panic message, or "" if it passes. */
std::string
auditMessage(const CuckooFilter &f)
{
    try {
        f.auditNoFalseNegatives();
    } catch (const std::logic_error &e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(CuckooAudit, StaleFreeCountFires)
{
    CuckooFilter f = saturatedFilter();
    ASSERT_EQ(f.size(), f.capacity());
    ASSERT_EQ(auditMessage(f), "");
    // Wiping a slot leaves its bucket's free count at zero: the fast
    // insert path would treat the bucket as full forever.
    f.debugCorruptSlot(3, 1);
    EXPECT_NE(auditMessage(f).find("bucket 3 free count 0 != 1"),
              std::string::npos)
        << auditMessage(f);
}

TEST(CuckooAudit, StaleAltBitsFire)
{
    // Rewriting a resident fingerprint leaves the packed alt-bucket XOR
    // of the old one in the slot: kicks would send the new fingerprint
    // to the wrong bucket. A new fingerprint can share the old one's
    // XOR by chance, so try a few; the audit must catch the rest.
    const CuckooFilter f = saturatedFilter();
    unsigned caught = 0;
    for (std::uint16_t fp = 1; fp <= 8; ++fp) {
        CuckooFilter g = f;
        g.debugCorruptSlot(5, 2, fp);
        std::string msg = auditMessage(g);
        if (msg.empty())
            continue;
        EXPECT_NE(msg.find("cuckoo slot (5, 2) holds alt XOR"),
                  std::string::npos)
            << msg;
        ++caught;
    }
    EXPECT_GE(caught, 6u);
}

TEST(CuckooAudit, ShadowCatchesSilentDropOfOneItem)
{
    if (!invariants_enabled)
        GTEST_SKIP() << "shadow tracking needs BARRE_CHECK_INVARIANTS";
    CuckooFilter f(smallFilter());
    for (std::uint64_t i = 1; i <= 24; ++i)
        ASSERT_TRUE(f.insert(i * 0x2c9b));
    // Corrupt single slots until some live item turns up missing; the
    // occupancy counter alone cannot pinpoint it, the shadow set can.
    bool fired = false;
    for (std::uint32_t b = 0; b < smallFilter().rows && !fired; ++b) {
        f.debugCorruptSlot(b, 0);
        try {
            f.auditNoFalseNegatives();
        } catch (const std::logic_error &) {
            fired = true;
        }
    }
    EXPECT_TRUE(fired);
}

TEST(CuckooAudit, LossyFilterIsExemptFromShadowAudit)
{
    // Overfill far past capacity: inserts start failing (dropping
    // victim fingerprints), which is by-design data loss — the audit
    // must tolerate it rather than cry wolf.
    CuckooFilter f(smallFilter());
    for (std::uint64_t i = 1; i <= 500; ++i)
        f.insert(i * 0x6b43);
    EXPECT_GT(f.lossyInserts(), 0u);
    EXPECT_NO_THROW(f.auditNoFalseNegatives());
}

TEST(PecAudit, HealthyGroupsPass)
{
    MemoryMap map(4, 0x4000);
    GpuDriver drv(map, barreParams());
    auto a = drv.gpuMalloc(1, 12);
    ASSERT_EQ(a.coalesced_pages, 12u);
    PageTable &pt = drv.pageTable(1);
    for (std::uint64_t p = 0; p < 12; ++p)
        EXPECT_NO_THROW(
            pec::auditGroup(a.layout, pt, a.start_vpn + p, map));
}

TEST(PecAudit, MergedGroupsPass)
{
    MemoryMap map(4, 0x4000);
    GpuDriver drv(map, barreParams(2));
    auto a = drv.gpuMalloc(1, 32);
    PageTable &pt = drv.pageTable(1);
    for (std::uint64_t p = 0; p < 32; ++p)
        EXPECT_NO_THROW(
            pec::auditGroup(a.layout, pt, a.start_vpn + p, map));
}

TEST(PecAudit, WrongMemberPfnFires)
{
    MemoryMap map(4, 0x4000);
    GpuDriver drv(map, barreParams());
    auto a = drv.gpuMalloc(1, 12);
    PageTable &pt = drv.pageTable(1);
    // Remap one group member a frame off while keeping its coalescing
    // bits: the PEC calculation no longer matches the page table.
    Vpn victim = a.start_vpn + 3;
    auto pte = pt.walk(victim);
    ASSERT_TRUE(pte.has_value());
    pt.map(victim, pte->pfn() + 1, pte->coalInfo());
    EXPECT_THROW(pec::auditGroup(a.layout, pt, a.start_vpn, map),
                 std::logic_error);
}

TEST(PecAudit, UnmappedMemberFires)
{
    MemoryMap map(4, 0x4000);
    GpuDriver drv(map, barreParams());
    auto a = drv.gpuMalloc(1, 12);
    PageTable &pt = drv.pageTable(1);
    ASSERT_TRUE(pt.unmap(a.start_vpn + 6));
    // start_vpn + 0 shares a group with + 3, + 6, + 9 (gran 3).
    EXPECT_THROW(pec::auditGroup(a.layout, pt, a.start_vpn, map),
                 std::logic_error);
}

TEST(PecAudit, DivergingGroupMetadataFires)
{
    MemoryMap map(4, 0x4000);
    GpuDriver drv(map, barreParams());
    auto a = drv.gpuMalloc(1, 12);
    PageTable &pt = drv.pageTable(1);
    Vpn victim = a.start_vpn + 9;
    CoalInfo ci = pt.walk(victim)->coalInfo();
    ci.bitmap &= ~(std::uint32_t{1} << 0); // drop position 0 only here
    ASSERT_TRUE(pt.updateCoalInfo(victim, ci));
    EXPECT_THROW(pec::auditGroup(a.layout, pt, a.start_vpn, map),
                 std::logic_error);
}

TEST(PecAudit, UncoalescedPageAuditsTrivially)
{
    MemoryMap map(4, 0x4000);
    GpuDriver drv(map, barreParams());
    auto a = drv.gpuMalloc(1, 1); // single page: no group
    PageTable &pt = drv.pageTable(1);
    EXPECT_NO_THROW(pec::auditGroup(a.layout, pt, a.start_vpn, map));
    EXPECT_NO_THROW(
        pec::auditGroup(a.layout, pt, a.start_vpn + 100, map)); // unmapped
}

TEST(RcfAudit, HealthyRemoteFiltersPass)
{
    FilterEngine eng(0, 4, smallFilter());
    for (Vpn v = 1; v <= 20; ++v) {
        eng.rcfInsert(1, 1, v * 3);
        eng.rcfInsert(2, 1, v * 5);
    }
    for (Vpn v = 1; v <= 5; ++v)
        eng.rcfErase(1, 1, v * 3);
    EXPECT_NO_THROW(eng.auditRcfMembership());
}

TEST(RcfAudit, CorruptedRemoteFilterFires)
{
    if (!invariants_enabled)
        GTEST_SKIP() << "RCF shadow needs BARRE_CHECK_INVARIANTS";
    FilterEngine eng(0, 4, smallFilter());
    for (Vpn v = 1; v <= 24; ++v)
        eng.rcfInsert(2, 1, v * 0x1f3);
    EXPECT_NO_THROW(eng.auditRcfMembership());
    // Wipe slots behind the shadow's back until a tracked membership
    // fact goes missing; the audit must notice.
    bool fired = false;
    for (std::uint32_t b = 0; b < smallFilter().rows && !fired; ++b) {
        for (std::uint32_t w = 0; w < smallFilter().ways; ++w)
            eng.debugCorruptRcfSlot(2, b, w);
        try {
            eng.auditRcfMembership();
        } catch (const std::logic_error &) {
            fired = true;
        }
    }
    EXPECT_TRUE(fired);
}

TEST(RcfAudit, ErasedKeysAreNotDemanded)
{
    if (!invariants_enabled)
        GTEST_SKIP() << "RCF shadow needs BARRE_CHECK_INVARIANTS";
    FilterEngine eng(0, 2, smallFilter());
    eng.rcfInsert(1, 1, 0x42);
    eng.rcfErase(1, 1, 0x42);
    // The filter legitimately forgot the key; the shadow must have
    // forgotten it too, or the audit would demand a ghost entry.
    EXPECT_NO_THROW(eng.auditRcfMembership());
    eng.reset();
    EXPECT_NO_THROW(eng.auditRcfMembership());
}

TEST(EventQueueAudit, SlabPassesUnderMixedDelays)
{
    EventQueue eq;
    int fired = 0;
    // Zero, short and long delays, rescheduling from inside events so
    // slab slots are freed and reused while the heap churns.
    for (int i = 0; i < 200; ++i) {
        eq.scheduleAfter(static_cast<Cycles>((i * 13) % 400), [&] {
            ++fired;
            eq.auditInvariants();
            if (fired % 5 == 0)
                eq.scheduleAfter((fired * 7) % 300, [&] { ++fired; });
        });
    }
    eq.auditInvariants();
    eq.run();
    eq.auditInvariants();
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueueAudit, CorruptedSlabFreeListFires)
{
    EventQueue eq;
    eq.scheduleAfter(10, [] {});
    eq.scheduleAfter(20, [] {});
    EXPECT_NO_THROW(eq.auditInvariants());
    // Free slot 1 behind the heap's back: a record still names it.
    eq.debugCorruptSlab(1);
    EXPECT_THROW(eq.auditInvariants(), std::logic_error);
    eq.debugCorruptSlab(1); // restore
    EXPECT_NO_THROW(eq.auditInvariants());
    // Once the tick-10 event has fired, drop its freed slot 0 from the
    // free list: the slab leaks a slot nothing accounts for.
    eq.schedule(15, [&eq] {
        eq.debugCorruptSlab(0);
        EXPECT_THROW(eq.auditInvariants(), std::logic_error);
    });
    eq.run();
}

TEST(EventQueueAudit, MisfiledNearRecordFires)
{
    EventQueue eq;
    eq.scheduleAfter(10, [] {});
    eq.scheduleAfter(10, [] {});
    eq.scheduleAfter(3 * EventQueue::kWindow, [] {});
    EXPECT_NO_THROW(eq.auditInvariants());
    // The first tick-10 record moves to tick 11's bucket, keeping its
    // tick: it now sits in another tick's bucket.
    eq.debugMisfileNear();
    EXPECT_THROW(eq.auditInvariants(), std::logic_error);
}

TEST(EventQueueAudit, WindowAndFarHeapPassAcrossTheEdge)
{
    EventQueue eq;
    const Tick w = EventQueue::kWindow;
    int fired = 0;
    int extra = 0;
    // Delays on both sides of the window's edge and several windows
    // out: records migrate from the far heap and buckets are reused.
    for (int i = 0; i < 300; ++i) {
        eq.scheduleAfter(static_cast<Cycles>((i * 97) % (4 * w)), [&, i] {
            ++fired;
            eq.auditInvariants();
            if (i % 3 == 0)
                eq.scheduleAfter(w - 1 + (i / 3) % 3, [&] { ++extra; });
        });
    }
    eq.auditInvariants();
    eq.run();
    eq.auditInvariants();
    EXPECT_EQ(fired, 300);
    EXPECT_EQ(extra, 100);
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueueAudit, OrderedHeapAndFastLanePass)
{
    EventQueue eq;
    int fired = 0;
    int extra = 0;
    for (int i = 0; i < 64; ++i)
        eq.schedule((i * 37) % 101, [&] {
            ++fired;
            eq.auditInvariants();
            if (fired % 8 == 0)
                eq.schedule(eq.now(), [&] { ++extra; }); // same tick
        });
    eq.auditInvariants();
    eq.run();
    eq.auditInvariants();
    EXPECT_EQ(fired, 64);
    EXPECT_EQ(extra, 8);
}
