/**
 * @file
 * Pins whole-system results of runs that park heavily on full L2-TLB
 * MSHR files.
 *
 * Each cell runs one app under one translation mode at a small scale,
 * serially (sim_domains 1), and folds its `--stats` dump and sweep CSV
 * row into a digest. The digests were recorded with per-request retries (one
 * retry event and one lookup event per parked request); waking a
 * parked herd more cheaply must leave every one of them unchanged.
 */

#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <string>

#include "harness/csv.hh"
#include "harness/experiment.hh"

using namespace barre;

namespace
{

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Digest of @p app 's stats dump and CSV row under @p cfg. */
std::uint64_t
runDigest(SystemConfig cfg, const char *app)
{
    cfg.workload_scale = 0.05;
    cfg.sim_domains = 1;
    System sys(cfg);
    sys.loadScenario(ScenarioSpec::solo(app));
    RunMetrics m = sys.run();
    m.app = app;
    EXPECT_GT(m.mshr_retries, 0u) << app << ": no request parked";
    std::ostringstream os;
    sys.dumpStats(os);
    os << csvRow(m) << '\n';
    return fnv1a(os.str());
}

/** Expected digests, in order: gups, then bicg. */
void
expectDigests(const SystemConfig &cfg,
              const std::array<std::uint64_t, 2> &want)
{
    std::size_t i = 0;
    for (const char *app : {"gups", "bicg"})
        EXPECT_EQ(runDigest(cfg, app), want[i++]) << app;
}

} // namespace

TEST(HerdIdentity, Baseline)
{
    expectDigests(SystemConfig::baselineAts(),
                  {0xf2f4b3baf45fa31eull, 0xb0020a52ed095c11ull});
}

TEST(HerdIdentity, FBarreMerge2)
{
    expectDigests(SystemConfig::fbarreCfg(2),
                  {0xf76897cd63281ff1ull, 0x658b4c438adab0e3ull});
}

TEST(HerdIdentity, Least)
{
    expectDigests(SystemConfig::leastCfg(),
                  {0xc03d27314ee6bff4ull, 0x81aa7c91bedfbf40ull});
}

TEST(HerdIdentity, Valkyrie)
{
    expectDigests(SystemConfig::valkyrieCfg(),
                  {0x21f67db76b23b4dcull, 0x8e376c4b63a457e6ull});
}

TEST(HerdIdentity, SharedL2Tlb)
{
    SystemConfig cfg = SystemConfig::baselineAts();
    cfg.shared_l2_tlb = true;
    expectDigests(cfg, {0xf428a5f71d500cd8ull, 0xf37d1c1185648a97ull});
}
