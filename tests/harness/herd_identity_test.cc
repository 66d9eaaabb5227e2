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
 * cheaply must leave every one of them unchanged. The walk-stage cells
 * (GMMU platform, fair PW scheduling, timed walks, IOMMU TLB, demand
 * paging, unbounded walkers) were recorded while the IOMMU and the
 * GMMUs each kept their own PW-queue, walkers and PEC scan; sharing one
 * walk stage must leave them unchanged too. The static two-tenant
 * cells were recorded while the static preload had a CTA planner of
 * its own beside the churn engine's.
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
    bool partitioned = false;
    /** The `--stats` dump the digest covers. */
    std::string dump;

    /** Counter @p name of the dump. */
    std::uint64_t
    stat(const std::string &name) const
    {
        std::istringstream is(dump);
        std::string key;
        double value = 0;
        while (is >> key >> value)
            if (key == name)
                return static_cast<std::uint64_t>(value);
        ADD_FAILURE() << name << " is not in the stats dump";
        return 0;
    }
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
    r.partitioned = sys.partitioned();
    EXPECT_GT(r.metrics.mshr_retries, 0u) << label << ": no request parked";
    std::ostringstream os;
    sys.dumpStats(os);
    r.dump = os.str();
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
 * must give the cell's digest, and the five-domain run must partition.
 * @return the serial runs, in order.
 */
std::vector<CellRun>
expectDigests(const SystemConfig &cfg, std::initializer_list<Cell> cells)
{
    std::vector<CellRun> runs;
    for (const Cell &c : cells) {
        runs.push_back(runCell(cfg, c.spec, c.label, 1));
        EXPECT_EQ(runs.back().digest, c.want) << c.label;
        const CellRun part = runCell(cfg, c.spec, c.label, 5);
        EXPECT_EQ(part.digest, c.want) << c.label << " over five domains";
        EXPECT_TRUE(part.partitioned) << c.label << " ran as one domain";
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

// Static multi-tenant preload: two tenants' CTAs share the CUs, each
// CU issuing the first tenant's streams before the second's.
TEST(HerdIdentity, BaselineStaticPair)
{
    expectDigests(SystemConfig::baselineAts(),
                  {Cell{ScenarioSpec::pair("cov", "atax"), "cov+atax",
                        0x0d21aa317f77897full}});
}

// A per-tenant scale halves gups' CTA count on top of workload_scale.
TEST(HerdIdentity, FBarreStaticScaledPair)
{
    const ScenarioSpec spec = parseScenarioSpec("gups*0.5+bicg");
    expectDigests(SystemConfig::fbarreCfg(2),
                  {Cell{spec, spec.label(), 0xfad3e0622961568dull}});
}

// The GMMU platform (MGvm, §VII-F): per-chiplet walkers with local and
// remote walks. Under Barre each GMMU's PEC scan serves queued group
// members with calculated PFNs.
TEST(HerdIdentity, GmmuBaseline)
{
    SystemConfig cfg = SystemConfig::baselineAts();
    cfg.use_gmmu = true;
    for (const CellRun &r :
         expectDigests(cfg, {solo("gups", 0x916ab1551008b5fcull),
                           solo("bicg", 0x1358ca86bb084531ull)}))
        EXPECT_GT(r.stat("gmmu.remote_walks"), 0u);
}

TEST(HerdIdentity, GmmuBarre)
{
    SystemConfig cfg = SystemConfig::barreCfg();
    cfg.use_gmmu = true;
    for (const CellRun &r :
         expectDigests(cfg, {solo("gups", 0xa66f57c99d170528ull)}))
        EXPECT_GT(r.stat("gmmu.pec_calculated"), 0u);
}

TEST(HerdIdentity, GmmuFBarreMerge2)
{
    SystemConfig cfg = SystemConfig::fbarreCfg(2);
    cfg.use_gmmu = true;
    for (const CellRun &r :
         expectDigests(cfg, {solo("gups", 0x3aa273ab42b7123aull),
                           solo("bicg", 0x1eefbb1626d1f79full)}))
        EXPECT_GT(r.stat("gmmu.local_walks"), 0u);
}

// Per-tenant fair PW-queue dispatch composed with coalescing-aware
// deferral, while tenants arrive and exit.
TEST(HerdIdentity, FBarreFairPwSched)
{
    SystemConfig cfg = SystemConfig::fbarreCfg(2);
    cfg.iommu.fair_pw_sched = true;
    const ScenarioSpec spec = parseScenarioSpec("poisson:8:2:7");
    for (const CellRun &r :
         expectDigests(cfg, {Cell{spec, spec.label(), 0xeac9f7590caa4f21ull}}))
        EXPECT_GT(r.stat("iommu.sched_deferrals"), 0u);
}

// Walk latency from the page-walk cache instead of the flat 500 cycles.
TEST(HerdIdentity, FBarreTimedWalks)
{
    SystemConfig cfg = SystemConfig::fbarreCfg(2);
    cfg.iommu.timed_walks = true;
    expectDigests(cfg, {solo("gups", 0x82ad5b8a7acd136eull),
                        solo("bicg", 0x5ea83df9b5bb0f11ull)});
}

// IOMMU TLB hits skip the PW-queue; walked and calculated PFNs fill it.
TEST(HerdIdentity, FBarreIommuTlb)
{
    SystemConfig cfg = SystemConfig::fbarreCfg(2);
    cfg.iommu.tlb_enabled = true;
    for (const CellRun &r :
         expectDigests(cfg, {solo("gups", 0x70944c11bc293e30ull),
                           solo("bicg", 0xd66fe5e56412fa47ull)}))
        EXPECT_GT(r.stat("iommu.tlb_hits"), 0u);
}

// A walk that finds no PTE faults the page in and completes after the
// fault latency, outside its walker.
TEST(HerdIdentity, FBarreDemandPaging)
{
    SystemConfig cfg = SystemConfig::fbarreCfg(2);
    cfg.driver.demand_paging = true;
    for (const CellRun &r :
         expectDigests(cfg, {solo("gups", 0xcdd72a3b6f8edbacull),
                           solo("bicg", 0x9db9053af0949a2bull)}))
        EXPECT_GT(r.stat("iommu.page_faults"), 0u);
}

// Checking every translation against the page table changes nothing
// it reports: the digests are FBarreDemandPaging's, though the checks
// walk the table from the chiplets' domains while the host faults
// pages into it.
TEST(HerdIdentity, FBarreDemandPagingValidated)
{
    SystemConfig cfg = SystemConfig::fbarreCfg(2);
    cfg.driver.demand_paging = true;
    cfg.validate_translations = true;
    expectDigests(cfg, {solo("gups", 0xcdd72a3b6f8edbacull),
                        solo("bicg", 0x9db9053af0949a2bull)});
}

// ptws = 0: unbounded walkers and no PW-queue bound (Fig 1's infinite).
TEST(HerdIdentity, FBarreUnboundedWalkers)
{
    SystemConfig cfg = SystemConfig::fbarreCfg(2);
    cfg.iommu.ptws = 0;
    expectDigests(cfg, {solo("gups", 0x2d1185ff7d309faeull),
                        solo("bicg", 0x1f6b37e15d0eb504ull)});
}
