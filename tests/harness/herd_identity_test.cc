/**
 * @file
 * Pins whole-system results of runs that park heavily on full L2-TLB
 * MSHR files.
 *
 * Each cell runs one scenario under one translation config at a small
 * scale and folds its `--stats` dump and sweep CSV row into a digest.
 * Every cell runs twice, serially (sim_domains 1) and over five event
 * domains, and both runs must give the pinned digest. The digests of
 * the first five configs were recorded with per-request retries (one
 * retry event and one lookup event per parked request); those of the
 * multicast, migration and churn cells with every parked request
 * re-running its lookup at each wake. Waking a parked herd more
 * cheaply must leave every one of them unchanged.
 */

#include <gtest/gtest.h>

#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

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

/** One run's digest, plus what the cells check ran at all. */
struct CellRun
{
    std::uint64_t digest = 0;
    RunMetrics metrics;
    std::uint64_t multicast_pushes = 0;
};

/**
 * Digest of @p spec 's stats dump and CSV row (labelled @p label) under
 * @p cfg over @p domains event domains.
 */
CellRun
runCell(SystemConfig cfg, const ScenarioSpec &spec, const std::string &label,
        std::uint32_t domains)
{
    cfg.workload_scale = 0.05;
    cfg.sim_domains = domains;
    System sys(cfg);
    sys.loadScenario(spec);
    CellRun r;
    r.metrics = sys.run();
    r.metrics.app = label;
    r.multicast_pushes = sys.iommu().multicastPushes();
    EXPECT_GT(r.metrics.mshr_retries, 0u) << label << ": no request parked";
    std::ostringstream os;
    sys.dumpStats(os);
    os << csvRow(r.metrics) << '\n';
    r.digest = fnv1a(os.str());
    return r;
}

struct Cell
{
    ScenarioSpec spec;
    std::string label;
    std::uint64_t want;
};

/** A solo run of Table-I app @p app, expected to digest to @p want. */
Cell
solo(const char *app, std::uint64_t want)
{
    return Cell{ScenarioSpec::solo(app), app, want};
}

/**
 * Run every cell under @p cfg at one and at five event domains; both
 * must give the cell's digest. @return the serial runs, in order.
 */
std::vector<CellRun>
expectDigests(const SystemConfig &cfg, std::initializer_list<Cell> cells)
{
    std::vector<CellRun> runs;
    for (const Cell &c : cells) {
        runs.push_back(runCell(cfg, c.spec, c.label, 1));
        EXPECT_EQ(runs.back().digest, c.want) << c.label;
        EXPECT_EQ(runCell(cfg, c.spec, c.label, 5).digest, c.want)
            << c.label << " over five domains";
    }
    return runs;
}

} // namespace

TEST(HerdIdentity, Baseline)
{
    expectDigests(SystemConfig::baselineAts(),
                  {solo("gups", 0xf2f4b3baf45fa31eull),
                   solo("bicg", 0xb0020a52ed095c11ull)});
}

TEST(HerdIdentity, FBarreMerge2)
{
    expectDigests(SystemConfig::fbarreCfg(2),
                  {solo("gups", 0xf76897cd63281ff1ull),
                   solo("bicg", 0x658b4c438adab0e3ull)});
}

TEST(HerdIdentity, Least)
{
    expectDigests(SystemConfig::leastCfg(),
                  {solo("gups", 0xc03d27314ee6bff4ull),
                   solo("bicg", 0x81aa7c91bedfbf40ull)});
}

TEST(HerdIdentity, Valkyrie)
{
    expectDigests(SystemConfig::valkyrieCfg(),
                  {solo("gups", 0x21f67db76b23b4dcull),
                   solo("bicg", 0x8e376c4b63a457e6ull)});
}

TEST(HerdIdentity, SharedL2Tlb)
{
    SystemConfig cfg = SystemConfig::baselineAts();
    cfg.shared_l2_tlb = true;
    expectDigests(cfg, {solo("gups", 0xf428a5f71d500cd8ull),
                        solo("bicg", 0xf37d1c1185648a97ull)});
}

// IOMMU multicast pushes land in L2 TLBs while requests are parked on
// them, without completing an MSHR. Multicast follows coalesced walks,
// so it needs a Barre mapping: under the baseline it pushes nothing.
TEST(HerdIdentity, FBarreMulticast)
{
    SystemConfig cfg = SystemConfig::fbarreCfg(2);
    cfg.iommu.multicast = true;
    for (const CellRun &r :
         expectDigests(cfg, {solo("gups", 0x4cfa514fd69408ffull),
                           solo("bicg", 0x7a8c3904fbb41aa2ull)}))
        EXPECT_GT(r.multicast_pushes, 0u) << r.metrics.app;
}

// ACUD migrations shoot translations down from L2 TLBs while requests
// are parked on them. Round-robin placement makes the remote accesses
// that trigger them: under LASP no page migrates at this scale.
TEST(HerdIdentity, Migration)
{
    SystemConfig cfg = SystemConfig::baselineAts();
    cfg.driver.policy = MappingPolicyKind::round_robin;
    cfg.migration.enabled = true;
    for (const CellRun &r :
         expectDigests(cfg, {solo("bicg", 0xd9fd99820f09fe74ull),
                           solo("matr", 0x8e80aab541389ddbull)}))
        EXPECT_GT(r.metrics.migrations, 0u) << r.metrics.app;
}

// Eight tenants arrive and exit: each exit shoots the tenant's entries
// out of every L2 TLB while other tenants' requests are parked.
TEST(HerdIdentity, FBarreTenantChurn)
{
    const ScenarioSpec spec = parseScenarioSpec("poisson:8:2:7");
    expectDigests(SystemConfig::fbarreCfg(2),
                  {Cell{spec, spec.label(), 0x96f2bced437be0abull}});
}
