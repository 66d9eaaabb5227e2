/**
 * @file
 * L2TlbStage's parked index against the full re-run reference
 * (l2_stage_reference.hh), over seeded random scripts of lookups,
 * fills, unsolicited fills and ASID shootdowns; and the index audit,
 * which must pass on healthy state and fire on a corrupted index.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "gpu/l2_stage_reference.hh"
#include "sim/rng.hh"

using namespace barre;
using test::RefL2Stage;
using test::StageOp;
using test::StageScript;

namespace
{

/**
 * A random script: a small TLB and MSHR file, a few tenants and pages
 * so that lookups hit, merge and park, and pushes and shootdowns land
 * while requests are parked.
 */
StageScript
randomScript(std::uint64_t seed)
{
    Rng rng(seed);
    StageScript s;
    s.tlb.entries = 16;
    s.tlb.ways = rng.below(2) ? 4 : 2;
    s.tlb.lookup_latency = 1 + rng.below(12);
    s.tlb.mshrs = 1 + static_cast<std::uint32_t>(rng.below(4));
    s.requesters = 1 + static_cast<std::uint32_t>(rng.below(3));
    s.retry_interval = 1 + rng.below(30);
    s.fill_delays.clear();
    for (int i = 0; i < 8; ++i)
        s.fill_delays.push_back(1 + rng.below(400));
    const Tick span = 500 + rng.below(4000);
    for (int i = 0; i < 300; ++i) {
        StageOp op{StageOp::Kind::lookup, rng.below(span),
                   static_cast<ChipletId>(rng.below(s.requesters)),
                   static_cast<ProcessId>(1 + rng.below(3)), rng.below(24)};
        const std::uint64_t roll = rng.below(100);
        if (roll >= 92)
            op.kind = StageOp::Kind::invalidate_asid;
        else if (roll >= 80)
            op.kind = StageOp::Kind::unsolicited;
        s.ops.push_back(op);
    }
    return s;
}

/** A 1-slot stage whose misses never fill: 1 in flight, @p n - 1 parked. */
struct StuckStage
{
    EventQueue eq;
    L2TlbStage stage{eq, "l2", TlbParams{16, 4, 10, 1, 0}, 0, 1, 20,
                     [](ChipletId, ProcessId, Vpn) {}};

    explicit StuckStage(Vpn n)
    {
        for (Vpn v = 1; v <= n; ++v)
            stage.lookup(0, 1, v, [](const TlbEntry &) {});
        eq.run();
    }

    std::string
    auditMessage() const
    {
        try {
            stage.auditParkedIndex();
        } catch (const std::logic_error &e) {
            return e.what();
        }
        return "";
    }
};

} // namespace

TEST(L2TlbStage, MatchesFullRerunReferenceOnRandomScripts)
{
    std::uint64_t parked_scripts = 0;
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        const StageScript s = randomScript(seed);
        const auto ref = test::runStageScript<RefL2Stage>(s);
        const auto got = test::runStageScript<L2TlbStage>(
            s, [](L2TlbStage &st) { st.auditParkedIndex(); },
            [](L2TlbStage &st) {
                st.auditParkedIndex();
                EXPECT_EQ(st.parked(0), 0u);
            });
        ASSERT_EQ(got.fired, ref.fired) << "seed " << seed;
        ASSERT_EQ(got.retries, ref.retries) << "seed " << seed;
        ASSERT_EQ(got.lru, ref.lru) << "seed " << seed;
        ASSERT_EQ(got.occupancy, ref.occupancy) << "seed " << seed;
        for (std::uint64_t r : ref.retries)
            parked_scripts += r > 0;
    }
    // The scripts must exercise the herd, not just the hit path.
    EXPECT_GT(parked_scripts, 200u);
}

TEST(L2TlbStage, IndexAuditPassesWhileParked)
{
    StuckStage s(4);
    EXPECT_EQ(s.stage.parked(0), 3u);
    EXPECT_EQ(s.auditMessage(), "");
    // A push readies the requests parked on its page.
    s.stage.unsolicitedFill(0, test::scriptResponse(1, 3));
    EXPECT_EQ(s.auditMessage(), "");
}

TEST(L2TlbStage, IndexAuditCatchesLostReadyMark)
{
    StuckStage s(4);
    s.stage.unsolicitedFill(0, test::scriptResponse(1, 3));
    s.stage.debugUnreadyAll();
    EXPECT_NE(s.auditMessage().find("resident or in flight but not ready"),
              std::string::npos)
        << s.auditMessage();
}

TEST(L2TlbStage, IndexAuditCatchesRequestMissingFromIndex)
{
    StuckStage s(4);
    s.stage.debugUnindexFirst();
    EXPECT_NE(s.auditMessage().find("the key index holds 2 requests, the "
                                    "park order 3"),
              std::string::npos)
        << s.auditMessage();
}
