/**
 * @file
 * Tests for trace record / write / read round-trips and trace replay.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "harness/experiment.hh"
#include "workloads/trace.hh"

using namespace barre;

TEST(Trace, WriteReadRoundTrip)
{
    Trace t;
    t.ctas.resize(3);
    t.ctas[0] = {{0x1000, 1}, {0x2040, 1}};
    t.ctas[2] = {{0xdeadbeef000, 2}};

    std::stringstream ss;
    writeTrace(ss, t);
    Trace back = readTrace(ss);

    ASSERT_EQ(back.ctas.size(), 3u);
    EXPECT_EQ(back.totalAccesses(), 3u);
    EXPECT_EQ(back.ctas[0][0].vaddr, 0x1000u);
    EXPECT_EQ(back.ctas[0][1].vaddr, 0x2040u);
    EXPECT_EQ(back.ctas[0][0].pid, 1u);
    EXPECT_TRUE(back.ctas[1].empty());
    EXPECT_EQ(back.ctas[2][0].pid, 2u);
    EXPECT_EQ(back.ctas[2][0].vaddr, 0xdeadbeef000u);
}

TEST(Trace, ParserHandlesCommentsAndBlanks)
{
    std::stringstream ss("# header\n\ncta 0\n  1000 # inline\n\n2000\n");
    Trace t = readTrace(ss);
    ASSERT_EQ(t.ctas.size(), 1u);
    EXPECT_EQ(t.ctas[0].size(), 2u);
}

TEST(Trace, AccessBeforeCtaIsFatal)
{
    std::stringstream ss("1000\n");
    EXPECT_THROW(readTrace(ss), std::runtime_error);
}

namespace
{

/** readTrace(@p text) must fail naming @p line and @p token. */
void
expectFatalAt(const std::string &text, int line, const std::string &token)
{
    std::stringstream ss(text);
    try {
        readTrace(ss);
        ADD_FAILURE() << "accepted:\n" << text;
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("trace line " + std::to_string(line) + ":"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find(token), std::string::npos) << msg;
    }
}

} // namespace

TEST(Trace, NonHexVaddrIsFatal)
{
    expectFatalAt("cta 0\n1000\nzz\n", 3, "'zz'");
}

TEST(Trace, VaddrWithJunkIsFatal)
{
    expectFatalAt("cta 0\n12xyz\n", 2, "'12xyz'");
}

TEST(Trace, PidWithJunkIsFatal)
{
    expectFatalAt("cta 0\n1000 7junk\n", 2, "'7junk'");
}

TEST(Trace, PidOverflowIsFatal)
{
    expectFatalAt("cta 0\n1000 4294967297\n", 2, "'4294967297'");
    // The largest 32-bit pid still parses.
    std::stringstream ok("cta 0\n1000 4294967295\n");
    EXPECT_EQ(readTrace(ok).ctas[0][0].pid, 4294967295u);
}

TEST(Trace, TrailingTokenIsFatal)
{
    expectFatalAt("cta 0\n1000 2 extra\n", 2, "'extra'");
    expectFatalAt("cta 0 1\n", 1, "'1'");
}

TEST(Trace, CtaIndexGapIsFatal)
{
    expectFatalAt("cta 0\n1000\ncta 99999999999\n", 3, "'99999999999'");
    expectFatalAt("cta 1\n", 1, "'1'");
    // Reopening an earlier CTA appends to it.
    std::stringstream ok("cta 0\n1000\ncta 1\n2000\ncta 0\n3000\n");
    Trace t = readTrace(ok);
    ASSERT_EQ(t.ctas.size(), 2u);
    EXPECT_EQ(t.ctas[0].size(), 2u);
}

TEST(Trace, RecordMatchesGenerator)
{
    MemoryMap map(4, 1 << 20);
    GpuDriver drv(map, DriverParams{});
    const AppParams &app = appByName("fft");
    std::vector<DataAlloc> allocs;
    for (const auto &b : app.buffers) {
        std::uint64_t pages = (b.bytes + 4095) >> 12;
        allocs.push_back(drv.gpuMalloc(1, pages, b.traits));
    }
    Trace t = recordTrace(app, allocs, PageSize::size4k);
    EXPECT_EQ(t.ctas.size(), app.ctas);
    EXPECT_EQ(t.ctas[5], generateCta(app, allocs, 5, PageSize::size4k));
}

TEST(Trace, ReplayReproducesGeneratedRun)
{
    // A system fed the recorded trace runs exactly as the one fed the
    // generator: same accesses, and trace CTA t placed where the
    // generator places CTA t.
    const AppParams &app = appByName("jac2d");
    SystemConfig cfg = SystemConfig::fbarreCfg(2);
    cfg.workload_scale = 0.04;

    System direct(cfg);
    direct.loadScenario(ScenarioSpec::solo(app.name));
    RunMetrics m1 = direct.run();

    // recordAppTrace() applies workload_scale the same way the
    // scenario preload path does, and a fresh system's replay
    // allocates the buffers the recording system did.
    const Trace t = System(cfg).recordAppTrace(app);
    System replay(cfg);
    replay.loadTrace(t, app);
    RunMetrics m2 = replay.run();

    EXPECT_EQ(m1, m2);
}
