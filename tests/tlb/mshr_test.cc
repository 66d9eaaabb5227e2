/**
 * @file
 * Unit tests for the MSHR file.
 */

#include <gtest/gtest.h>

#include <vector>

#include "tlb/mshr.hh"

using namespace barre;

using IntMshr = Mshr<int>;

TEST(Mshr, FirstAllocationIsPrimary)
{
    IntMshr mshr(4);
    int got = 0;
    auto o = mshr.allocate(1, [&](const int &v) { got = v; });
    EXPECT_EQ(o, IntMshr::Outcome::primary);
    EXPECT_TRUE(mshr.inFlight(1));
    mshr.complete(1, 42);
    EXPECT_EQ(got, 42);
    EXPECT_FALSE(mshr.inFlight(1));
}

TEST(Mshr, SecondAllocationMerges)
{
    IntMshr mshr(4);
    std::vector<int> order;
    mshr.allocate(1, [&](const int &) { order.push_back(1); });
    auto o = mshr.allocate(1, [&](const int &) { order.push_back(2); });
    EXPECT_EQ(o, IntMshr::Outcome::secondary);
    EXPECT_EQ(mshr.occupancy(), 1u);
    mshr.complete(1, 0);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(mshr.secondaryMisses(), 1u);
}

TEST(Mshr, NewKeyWhenFullPanics)
{
    IntMshr mshr(2);
    mshr.allocate(1, [](const int &) {});
    mshr.allocate(2, [](const int &) {});
    EXPECT_TRUE(mshr.full());
    // No room for a new key: the caller must park instead.
    EXPECT_THROW(mshr.allocate(3, [](const int &) {}), std::logic_error);
    // Merging onto an existing key still works when full.
    auto o2 = mshr.allocate(1, [](const int &) {});
    EXPECT_EQ(o2, IntMshr::Outcome::secondary);
}

TEST(Mshr, CompleteUnknownPanics)
{
    IntMshr mshr(2);
    EXPECT_THROW(mshr.complete(9, 0), std::logic_error);
}

TEST(Mshr, CallbackMayReallocateSameKey)
{
    IntMshr mshr(2);
    int second = 0;
    mshr.allocate(1, [&](const int &) {
        auto o = mshr.allocate(1, [&](const int &v) { second = v; });
        EXPECT_EQ(o, IntMshr::Outcome::primary);
    });
    mshr.complete(1, 1);
    EXPECT_TRUE(mshr.inFlight(1));
    mshr.complete(1, 7);
    EXPECT_EQ(second, 7);
}

TEST(Mshr, KeyOfSeparatesProcesses)
{
    EXPECT_NE(IntMshr::keyOf(1, 0x10), IntMshr::keyOf(2, 0x10));
    EXPECT_NE(IntMshr::keyOf(1, 0x10), IntMshr::keyOf(1, 0x11));
}
