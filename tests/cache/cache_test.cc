/**
 * @file
 * Unit tests for the data cache.
 */

#include <gtest/gtest.h>

#include "cache/cache.hh"

using namespace barre;

TEST(Cache, MissThenHitOnSameLine)
{
    Cache c(CacheParams{1024, 2, 64, 1});
    EXPECT_FALSE(c.access(0x100));
    EXPECT_TRUE(c.access(0x100));
    EXPECT_TRUE(c.access(0x13F)); // same 64B line
    EXPECT_FALSE(c.access(0x140)); // next line
    EXPECT_EQ(c.misses(), 2u);
    EXPECT_EQ(c.hits(), 2u);
}

TEST(Cache, LruEvictionWithinSet)
{
    // 2 ways, 128B total => 1 set of 2 lines.
    Cache c(CacheParams{128, 2, 64, 1});
    c.access(0x000);
    c.access(0x040 * 1); // different line, maps to... ensure same set
    // With 1 set everything collides.
    c.access(0x000); // touch line 0
    c.access(0x080); // evicts LRU (0x040)
    EXPECT_TRUE(c.access(0x000));
    EXPECT_FALSE(c.access(0x040));
}

TEST(Cache, InvalidatePageDropsAllItsLines)
{
    Cache c(CacheParams{64 * 1024, 4, 64, 1});
    // Fill 8 lines of frame 5 (4 KB pages).
    for (Addr off = 0; off < 512; off += 64)
        c.access((5ull << 12) + off);
    std::uint32_t dropped = c.invalidatePage(5, 12);
    EXPECT_EQ(dropped, 8u);
    EXPECT_FALSE(c.access(5ull << 12));
}

TEST(Cache, InvalidateAll)
{
    Cache c(CacheParams{1024, 2, 64, 1});
    c.access(0x0);
    c.invalidateAll();
    EXPECT_FALSE(c.access(0x0));
}

TEST(Cache, GeometryValidated)
{
    EXPECT_THROW(Cache(CacheParams{100, 3, 60, 1}), std::logic_error);
}

TEST(Cache, LargeCacheHoldsWorkingSet)
{
    Cache c(CacheParams{2 * 1024 * 1024, 16, 64, 20});
    for (Addr a = 0; a < 2 * 1024 * 1024; a += 64)
        c.access(a);
    // Second pass: everything should hit.
    std::uint64_t misses = c.misses();
    for (Addr a = 0; a < 2 * 1024 * 1024; a += 64)
        EXPECT_TRUE(c.access(a));
    EXPECT_EQ(c.misses(), misses);
}
