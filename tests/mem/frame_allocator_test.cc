/**
 * @file
 * Unit + property tests for the per-chiplet frame allocator, including
 * the common-availability searches Barre's driver relies on.
 */

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "mem/frame_allocator.hh"

using namespace barre;

namespace
{

/** Frame-by-frame first-fit scan: the reference the search must match. */
std::optional<LocalPfn>
referenceCommonFreeRun(std::span<const FrameAllocator *> peers,
                       std::uint64_t run_length, LocalPfn start_hint)
{
    std::uint64_t frames = peers.front()->numFrames();
    for (const auto *p : peers)
        frames = std::min(frames, p->numFrames());
    if (frames < run_length)
        return std::nullopt;
    std::uint64_t run = 0;
    for (LocalPfn pfn = start_hint; pfn < frames; ++pfn) {
        bool all_free = true;
        for (const auto *p : peers)
            all_free = all_free && p->isFree(pfn);
        run = all_free ? run + 1 : 0;
        if (run == run_length)
            return pfn + 1 - run_length;
    }
    return std::nullopt;
}

/** No frame below the low-water mark may be free. */
void
expectLowWaterHolds(const FrameAllocator &fa)
{
    ASSERT_LE(fa.lowWaterMark(), fa.numFrames());
    for (LocalPfn p = 0; p < fa.lowWaterMark(); ++p)
        ASSERT_FALSE(fa.isFree(p)) << "frame " << p << " below mark "
                                   << fa.lowWaterMark();
}

} // namespace

TEST(FrameAllocator, StartsAllFree)
{
    FrameAllocator fa(100);
    EXPECT_EQ(fa.numFrames(), 100u);
    EXPECT_EQ(fa.freeFrames(), 100u);
    for (LocalPfn p = 0; p < 100; ++p)
        EXPECT_TRUE(fa.isFree(p));
}

TEST(FrameAllocator, AllocateSpecificFrame)
{
    FrameAllocator fa(64);
    EXPECT_TRUE(fa.allocate(10));
    EXPECT_FALSE(fa.isFree(10));
    EXPECT_FALSE(fa.allocate(10)); // double-allocate fails
    EXPECT_EQ(fa.freeFrames(), 63u);
}

TEST(FrameAllocator, AllocateAnyIsLowestFirst)
{
    FrameAllocator fa(64);
    fa.allocate(0);
    fa.allocate(1);
    auto p = fa.allocateAny();
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(*p, 2u);
}

TEST(FrameAllocator, ReleaseAndReuse)
{
    FrameAllocator fa(8);
    for (int i = 0; i < 8; ++i)
        EXPECT_TRUE(fa.allocateAny().has_value());
    EXPECT_EQ(fa.freeFrames(), 0u);
    EXPECT_FALSE(fa.allocateAny().has_value());
    EXPECT_TRUE(fa.release(3));
    EXPECT_FALSE(fa.release(3)); // double free rejected
    auto p = fa.allocateAny();
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(*p, 3u);
}

TEST(FrameAllocator, ExhaustionExactCount)
{
    FrameAllocator fa(130); // crosses word boundaries
    for (int i = 0; i < 130; ++i)
        EXPECT_TRUE(fa.allocateAny().has_value()) << i;
    EXPECT_FALSE(fa.allocateAny().has_value());
}

TEST(FrameAllocator, OutOfRangePanics)
{
    FrameAllocator fa(16);
    EXPECT_THROW(fa.isFree(16), std::logic_error);
}

TEST(FrameAllocator, CommonFreeIntersects)
{
    FrameAllocator a(32), b(32), c(32);
    a.allocate(0);
    b.allocate(1);
    c.allocate(2);
    std::array<const FrameAllocator *, 3> peers{&a, &b, &c};
    auto p = FrameAllocator::findCommonFreeRun(peers, 1);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(*p, 3u);
}

TEST(FrameAllocator, CommonFreeHonoursHint)
{
    FrameAllocator a(32), b(32);
    std::array<const FrameAllocator *, 2> peers{&a, &b};
    auto p = FrameAllocator::findCommonFreeRun(peers, 1, 10);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(*p, 10u);
}

TEST(FrameAllocator, CommonFreeNoneWhenDisjoint)
{
    FrameAllocator a(4), b(4);
    a.allocate(0);
    a.allocate(1);
    b.allocate(2);
    b.allocate(3);
    std::array<const FrameAllocator *, 2> peers{&a, &b};
    EXPECT_FALSE(FrameAllocator::findCommonFreeRun(peers, 1).has_value());
}

TEST(FrameAllocator, CommonFreeRunFindsContiguity)
{
    FrameAllocator a(32), b(32);
    // Punch holes so the first common run of 3 starts at 9.
    a.allocate(1);
    b.allocate(4);
    a.allocate(6);
    b.allocate(8);
    std::array<const FrameAllocator *, 2> peers{&a, &b};
    auto p = FrameAllocator::findCommonFreeRun(peers, 3);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(*p, 9u);
    // All three frames are free in both.
    for (LocalPfn q = *p; q < *p + 3; ++q) {
        EXPECT_TRUE(a.isFree(q));
        EXPECT_TRUE(b.isFree(q));
    }
}

TEST(FrameAllocator, CommonFreeRunTooLongFails)
{
    FrameAllocator a(8), b(8);
    for (LocalPfn p = 0; p < 8; p += 2)
        a.allocate(p); // every other frame gone
    std::array<const FrameAllocator *, 2> peers{&a, &b};
    EXPECT_FALSE(FrameAllocator::findCommonFreeRun(peers, 2).has_value());
    EXPECT_TRUE(FrameAllocator::findCommonFreeRun(peers, 1).has_value());
}

TEST(FrameAllocator, FragmentationInjectionClaimsRoughlyFraction)
{
    FrameAllocator fa(10000);
    Rng rng(5);
    std::uint64_t claimed = fa.injectFragmentation(0.25, rng);
    EXPECT_NEAR(static_cast<double>(claimed), 2500.0, 200.0);
    EXPECT_EQ(fa.freeFrames(), 10000 - claimed);
}

TEST(FrameAllocator, HintSurvivesReleaseBelow)
{
    FrameAllocator fa(64);
    for (int i = 0; i < 32; ++i)
        fa.allocateAny();
    fa.release(5);
    auto p = fa.allocateAny();
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(*p, 5u); // low-water mark was pulled back
}

/** Property: free count always equals the number of free bits. */
TEST(FrameAllocator, FreeCountInvariantUnderRandomOps)
{
    FrameAllocator fa(512);
    Rng rng(99);
    for (int i = 0; i < 5000; ++i) {
        LocalPfn p = rng.below(512);
        if (rng.chance(0.5))
            fa.allocate(p);
        else
            fa.release(p);
    }
    std::uint64_t free_bits = 0;
    for (LocalPfn p = 0; p < 512; ++p)
        free_bits += fa.isFree(p) ? 1 : 0;
    EXPECT_EQ(free_bits, fa.freeFrames());
}

/**
 * Differential property: the word-parallel search returns what the
 * frame-by-frame scan returns, over random bitmaps of every density,
 * 1-4 peers of unequal size, runs of 1-130 frames (inside a word,
 * across words, longer than a word) and random start hints.
 */
TEST(FrameAllocator, CommonFreeRunMatchesFrameByFrameScan)
{
    Rng rng(2024);
    int found = 0;
    int found_long = 0;
    int none = 0;
    for (int c = 0; c < 20000; ++c) {
        const std::size_t n_peers = 1 + rng.below(4);
        const double density = static_cast<double>(rng.below(11)) / 10.0;
        std::vector<std::unique_ptr<FrameAllocator>> owners;
        std::vector<const FrameAllocator *> peers;
        std::uint64_t max_frames = 0;
        for (std::size_t i = 0; i < n_peers; ++i) {
            const std::uint64_t frames = 1 + rng.below(400);
            max_frames = std::max(max_frames, frames);
            auto fa = std::make_unique<FrameAllocator>(frames);
            // Allocate with probability density; long free stretches
            // come from the low densities.
            for (LocalPfn p = 0; p < frames; ++p)
                if (rng.chance(density))
                    fa->allocate(p);
            // Move the low-water mark off zero now and then.
            if (rng.chance(0.3) && fa->freeFrames() > 0)
                fa->allocateAny();
            if (rng.chance(0.3))
                fa->release(rng.below(frames));
            peers.push_back(fa.get());
            owners.push_back(std::move(fa));
        }
        const std::uint64_t run_length = 1 + rng.below(130);
        const LocalPfn hint =
            rng.chance(0.5) ? 0 : rng.below(max_frames + 10);
        auto want = referenceCommonFreeRun(peers, run_length, hint);
        auto got = FrameAllocator::findCommonFreeRun(peers, run_length,
                                                     hint);
        ASSERT_EQ(got, want) << "case " << c << ": peers " << n_peers
                             << ", density " << density << ", run "
                             << run_length << ", hint " << hint;
        if (want) {
            ++found;
            found_long += run_length > 64 ? 1 : 0;
        } else {
            ++none;
        }
        for (const auto *p : peers)
            expectLowWaterHolds(*p);
    }
    // Both outcomes, and runs longer than a word, must be covered.
    EXPECT_GT(found, 1000);
    EXPECT_GT(found_long, 100);
    EXPECT_GT(none, 1000);
}

/**
 * Property: under a random mix of allocate, release, allocateAny and
 * common-run searches, no frame below any allocator's low-water mark
 * is ever free, and the search keeps matching the reference.
 */
TEST(FrameAllocator, LowWaterInvariantUnderRandomOps)
{
    FrameAllocator a(300), b(257), c(320);
    std::array<FrameAllocator *, 3> all{&a, &b, &c};
    std::array<const FrameAllocator *, 3> peers{&a, &b, &c};
    Rng rng(7);
    for (int i = 0; i < 20000; ++i) {
        FrameAllocator &fa = *all[rng.below(all.size())];
        switch (rng.below(4)) {
          case 0:
            fa.allocate(rng.below(fa.numFrames()));
            break;
          case 1:
            fa.release(rng.below(fa.numFrames()));
            break;
          case 2:
            fa.allocateAny();
            break;
          default: {
            const std::size_t n = 1 + rng.below(peers.size());
            std::span<const FrameAllocator *> some(peers.data(), n);
            const std::uint64_t len = 1 + rng.below(80);
            const LocalPfn hint = rng.chance(0.7) ? 0 : rng.below(320);
            ASSERT_EQ(FrameAllocator::findCommonFreeRun(some, len, hint),
                      referenceCommonFreeRun(some, len, hint))
                << "op " << i;
            break;
          }
        }
        for (const auto *p : peers)
            expectLowWaterHolds(*p);
    }
}
