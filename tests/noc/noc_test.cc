/**
 * @file
 * Unit tests for links, the chiplet interconnect, and the PCIe model.
 */

#include <gtest/gtest.h>

#include "noc/interconnect.hh"
#include "noc/link.hh"
#include "noc/pcie.hh"
#include "sim/rng.hh"

#include "stats_of.hh"

using namespace barre;

TEST(Link, DeliversAfterSerializationPlusLatency)
{
    EventQueue eq;
    Link link(eq, "l", LinkParams{64.0, 32});
    Tick at = 0;
    link.sendTo(kHostTag, 64, [&] { at = eq.now(); });
    eq.run();
    EXPECT_EQ(at, 1u + 32u); // 1 cycle serialize + 32 latency
    EXPECT_EQ(link.messages().value(), 1u);
    EXPECT_EQ(link.bytesSent().value(), 64u);
}

TEST(Link, BackToBackMessagesQueueOnTheWire)
{
    EventQueue eq;
    Link link(eq, "l", LinkParams{64.0, 10});
    std::vector<Tick> at;
    for (int i = 0; i < 3; ++i) // 2 cycles each
        link.sendTo(kHostTag, 128, [&] { at.push_back(eq.now()); });
    eq.run();
    ASSERT_EQ(at.size(), 3u);
    EXPECT_EQ(at[0], 12u);
    EXPECT_EQ(at[1], 14u);
    EXPECT_EQ(at[2], 16u);
}

TEST(Link, TinyMessageStillTakesACycle)
{
    EventQueue eq;
    Link link(eq, "l", LinkParams{768.0, 0});
    Tick at = 0;
    link.sendTo(kHostTag, 1, [&] { at = eq.now(); });
    eq.run();
    EXPECT_EQ(at, 1u);
}

TEST(Link, FifoOrderPreserved)
{
    EventQueue eq;
    Link link(eq, "l", LinkParams{8.0, 5});
    std::vector<int> order;
    // 8 cycles, then 1 cycle queued after it.
    link.sendTo(kHostTag, 64, [&] { order.push_back(1); });
    link.sendTo(kHostTag, 8, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Interconnect, RoutesBetweenChiplets)
{
    EventQueue eq;
    Interconnect noc(eq, "noc", 4, InterconnectParams{768.0, 32});
    Tick at = 0;
    noc.send(0, 3, 64, [&] { at = eq.now(); });
    eq.run();
    EXPECT_EQ(at, 33u);
    EXPECT_EQ(statsOf(noc).count("noc.messages"), 1u);
    EXPECT_EQ(statsOf(noc).count("noc.bytes"), 64u);
}

TEST(Interconnect, SelfSendPanics)
{
    EventQueue eq;
    Interconnect noc(eq, "noc", 2);
    EXPECT_THROW(noc.send(1, 1, 8, [] {}), std::logic_error);
}

TEST(Interconnect, PerChipletEgressContention)
{
    EventQueue eq;
    InterconnectParams p;
    p.bytes_per_cycle = 64.0;
    p.latency = 0;
    Interconnect noc(eq, "noc", 4, p);
    std::vector<Tick> at(3);
    // Chiplet 0 sends two messages (contend); chiplet 1 sends one.
    noc.send(0, 1, 64, [&] { at[0] = eq.now(); });
    noc.send(0, 2, 64, [&] { at[1] = eq.now(); });
    noc.send(1, 2, 64, [&] { at[2] = eq.now(); });
    eq.run();
    EXPECT_EQ(at[0], 1u);
    EXPECT_EQ(at[1], 2u); // serialized behind the first
    EXPECT_EQ(at[2], 1u); // independent egress port
}

TEST(Pcie, DirectionsAreIndependent)
{
    EventQueue eq;
    PcieParams p;
    p.bytes_per_cycle = 32.0;
    p.latency = 150;
    Pcie pcie(eq, "pcie", p);
    Tick up = 0, down = 0;
    pcie.toHost(32, [&] { up = eq.now(); });
    pcie.toDevice(chipletTag(0), 32, [&] { down = eq.now(); });
    eq.run();
    EXPECT_EQ(up, 151u);
    EXPECT_EQ(down, 151u); // no cross-direction contention
    EXPECT_EQ(pcie.upstream().bytesSent().value(), 32u);
    EXPECT_EQ(pcie.downstream().bytesSent().value(), 32u);
}

TEST(Link, SerializationCyclesIsAnExactCeiling)
{
    // Boundary byte sizes around whole multiples of the rate: the old
    // `+ 0.999999` hack happened to match at these, and must keep
    // matching after the exact-integer rewrite.
    EXPECT_EQ(serializationCycles(0, 64.0), 1u);   // min 1 cycle
    EXPECT_EQ(serializationCycles(1, 64.0), 1u);
    EXPECT_EQ(serializationCycles(63, 64.0), 1u);
    EXPECT_EQ(serializationCycles(64, 64.0), 1u);
    EXPECT_EQ(serializationCycles(65, 64.0), 2u);
    EXPECT_EQ(serializationCycles(128, 64.0), 2u);
    EXPECT_EQ(serializationCycles(129, 64.0), 3u);
    EXPECT_EQ(serializationCycles(1, 768.0), 1u);
    EXPECT_EQ(serializationCycles(768, 768.0), 1u);
    EXPECT_EQ(serializationCycles(769, 768.0), 2u);
}

TEST(Link, SerializationCyclesExactForHugeTransfers)
{
    // Past 2^53 bytes a double can no longer represent the count, so
    // the old float ceil under- or over-rounds; the integer path must
    // stay exact.
    const std::uint64_t huge = (std::uint64_t{1} << 53) + 1;
    EXPECT_EQ(serializationCycles(huge, 1.0), huge);
    EXPECT_EQ(serializationCycles(huge * 2, 2.0), huge);
    const std::uint64_t odd = (std::uint64_t{1} << 60) + 3;
    EXPECT_EQ(serializationCycles(odd, 64.0), odd / 64 + 1);
}

TEST(Link, SerializationCyclesFractionalRateFallsBackToCeil)
{
    EXPECT_EQ(serializationCycles(1, 0.5), 2u);
    EXPECT_EQ(serializationCycles(3, 1.5), 2u);
    EXPECT_EQ(serializationCycles(4, 1.5), 3u);
}

TEST(Link, SendMatchesSerializationCyclesAtBoundaries)
{
    // End-to-end: the wire occupancy Link::sendTo charges must be the
    // exact ceiling at the byte sizes straddling a rate multiple.
    for (std::uint64_t bytes : {63u, 64u, 65u, 127u, 128u, 129u}) {
        EventQueue eq;
        Link link(eq, "l", LinkParams{64.0, 0});
        Tick first = 0, second = 0;
        link.sendTo(kHostTag, bytes, [&] { first = eq.now(); });
        link.sendTo(kHostTag, 64, [&] { second = eq.now(); });
        eq.run();
        const Tick ser = serializationCycles(bytes, 64.0);
        EXPECT_EQ(first, ser) << "bytes=" << bytes;
        EXPECT_EQ(second, ser + 1) << "bytes=" << bytes;
    }
}

TEST(Link, LowerBoundNeverExceedsTheArbitratedArrival)
{
    // Random bursts of contended sends: every send's bound is taken on
    // the wire as it stood before its burst, then the burst arbitrates
    // in order. The bound must never exceed the arrival; it must equal
    // it for the burst's first send (the wire is unchanged) and for any
    // send that finds the wire idle.
    EventQueue eq;
    Link link(eq, "l", LinkParams{16.0, 20});
    Rng rng(0x11ab);
    Tick sent = 0;
    Tick wire_free = 0;
    int idle = 0, below = 0;
    for (int round = 0; round < 2000; ++round) {
        sent += rng.below(64); // the wire drains between some bursts
        const std::uint64_t n = 1 + rng.below(6);
        std::vector<std::pair<Tick, std::uint64_t>> burst;
        std::vector<Tick> bound;
        for (std::uint64_t i = 0; i < n; ++i) {
            sent += rng.below(8);
            const std::uint64_t bytes = rng.below(200);
            burst.emplace_back(sent, bytes);
            bound.push_back(link.lowerBound(sent, bytes));
        }
        for (std::uint64_t i = 0; i < n; ++i) {
            const auto [at, bytes] = burst[i];
            const bool wire_idle = at >= wire_free;
            const Tick arrive = link.arbitrate(at, bytes);
            wire_free = arrive - 20;
            ASSERT_LE(bound[i], arrive) << "round " << round;
            if (i == 0 || wire_idle) {
                ASSERT_EQ(bound[i], arrive) << "round " << round;
            }
            idle += wire_idle;
            below += bound[i] < arrive;
        }
    }
    EXPECT_GT(idle, 100);
    EXPECT_GT(below, 100); // contention happened
}

TEST(Link, LowerBoundLeavesTheWireAlone)
{
    EventQueue eq;
    Link link(eq, "l", LinkParams{64.0, 32});
    EXPECT_EQ(link.lowerBound(5, 128), 5u + 2u + 32u);
    EXPECT_EQ(link.lowerBound(5, 128), 5u + 2u + 32u);
    EXPECT_EQ(link.messages().value(), 0u);
    EXPECT_EQ(link.arbitrate(5, 128), 5u + 2u + 32u);
    EXPECT_EQ(link.lowerBound(5, 64), 7u + 1u + 32u);
}
