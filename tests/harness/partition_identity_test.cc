/**
 * @file
 * Every configuration System accepts partitions: asked for several
 * event domains, it splits into them without a warning and produces
 * results bit-identical to sim_domains=1. Validated demand paging, whose
 * chiplet-side checks walk the page table while the host faults pages
 * in, is pinned here in CSV, stats and per-tag firing digests with the
 * domain guard in panic mode. Migration and demand paging are modeled
 * on the IOMMU platform only; asking for either under the GMMU is a
 * clean fatal at construction.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "harness/csv.hh"
#include "harness/system.hh"
#include "sim/logging.hh"
#include "workloads/suite.hh"

using namespace barre;

namespace
{

struct RunOut
{
    std::string csv;
    std::string stats;
    std::vector<std::uint64_t> digests;
    bool partitioned = false;
    /** Lines the construction and run logged to stderr. */
    int warnings = 0;
};

RunOut
runCfg(SystemConfig cfg, std::uint32_t domains, std::uint32_t threads = 1,
       const char *app = "cov")
{
    cfg.workload_scale = 0.02;
    cfg.sim_domains = domains;
    cfg.sim_threads = threads;

    RunOut out;
    beginLogBuffer();
    System sys(std::move(cfg));
    sys.domainGuard().setMode(DomainAuditMode::panic);
    sys.loadScenario(ScenarioSpec::solo(app));
    RunMetrics m = sys.run();
    LogBlock log = endLogBuffer();
    for (const auto &line : log.lines)
        if (line.to_stderr)
            ++out.warnings;

    m.app = app;
    out.csv = csvRow(m);
    std::ostringstream os;
    sys.dumpStats(os);
    out.stats = os.str();
    out.digests = sys.eventQueue().fireDigests();
    out.partitioned = sys.partitioned();
    return out;
}

SystemConfig
cfgFor(const std::string &name)
{
    if (name == "valkyrie")
        return SystemConfig::valkyrieCfg();
    if (name == "least")
        return SystemConfig::leastCfg();
    if (name == "shared_l2_tlb") {
        SystemConfig cfg = SystemConfig::baselineAts();
        cfg.shared_l2_tlb = true;
        return cfg;
    }
    if (name == "migration") {
        SystemConfig cfg = SystemConfig::baselineAts();
        cfg.migration.enabled = true;
        cfg.migration.threshold = 4;
        cfg.driver.policy = MappingPolicyKind::round_robin;
        return cfg;
    }
    if (name == "fbarre_oracle") {
        SystemConfig cfg = SystemConfig::fbarreCfg();
        cfg.fbarre.oracle_sharing = true;
        return cfg;
    }
    if (name == "demand_paging") {
        SystemConfig cfg = SystemConfig::baselineAts();
        cfg.driver.demand_paging = true;
        return cfg;
    }
    if (name == "shared+valkyrie") {
        SystemConfig cfg = SystemConfig::valkyrieCfg();
        cfg.shared_l2_tlb = true;
        return cfg;
    }
    if (name == "shared+least") {
        SystemConfig cfg = SystemConfig::leastCfg();
        cfg.shared_l2_tlb = true;
        return cfg;
    }
    if (name == "shared+fbarre") {
        SystemConfig cfg = SystemConfig::fbarreCfg();
        cfg.shared_l2_tlb = true;
        return cfg;
    }
    // shared+migration
    SystemConfig cfg = SystemConfig::baselineAts();
    cfg.shared_l2_tlb = true;
    cfg.migration.enabled = true;
    cfg.migration.threshold = 4;
    cfg.driver.policy = MappingPolicyKind::round_robin;
    return cfg;
}

void
expectIdentical(const RunOut &serial, const RunOut &part,
                const std::string &what)
{
    EXPECT_FALSE(serial.partitioned) << what;
    EXPECT_TRUE(part.partitioned) << what << " ran as one domain";
    EXPECT_EQ(part.warnings, 0) << what;
    EXPECT_EQ(serial.csv, part.csv) << what;
    EXPECT_EQ(serial.stats, part.stats) << what;
    EXPECT_TRUE(serial.digests == part.digests) << what;
}

TEST(PartitionIdentity, ValidatedDemandPagingMatchesOneDomain)
{
    SystemConfig cfg = SystemConfig::baselineAts();
    cfg.driver.demand_paging = true;
    cfg.validate_translations = true;
    for (const char *app : {"cov", "gups"}) {
        const RunOut serial = runCfg(cfg, 1, 1, app);
        for (std::uint32_t threads : {2u, 5u}) {
            expectIdentical(serial, runCfg(cfg, 5, threads, app),
                            std::string(app) + " sim_threads=" +
                                std::to_string(threads));
        }
    }
}

TEST(PartitionIdentity, MigrationUnderGmmuIsFatal)
{
    SystemConfig cfg = SystemConfig::baselineAts();
    cfg.use_gmmu = true;
    cfg.mode = TranslationMode::barre;
    cfg.migration.enabled = true;
    EXPECT_THROW(System{cfg}, FatalError);
}

TEST(PartitionIdentity, DemandPagingUnderGmmuIsFatal)
{
    SystemConfig cfg = SystemConfig::baselineAts();
    cfg.use_gmmu = true;
    cfg.mode = TranslationMode::barre;
    cfg.driver.demand_paging = true;
    EXPECT_THROW(System{cfg}, FatalError);
}

class PartitionUnblocked : public ::testing::TestWithParam<const char *>
{};

TEST_P(PartitionUnblocked, PartitionsWithoutWarning)
{
    const RunOut out = runCfg(cfgFor(GetParam()), 4);
    EXPECT_TRUE(out.partitioned) << "config ran as one domain";
    EXPECT_EQ(out.warnings, 0);
}

INSTANTIATE_TEST_SUITE_P(AllUnblockedConfigs, PartitionUnblocked,
                         ::testing::Values("valkyrie", "least",
                                           "shared_l2_tlb", "migration",
                                           "fbarre_oracle",
                                           "demand_paging",
                                           "shared+valkyrie",
                                           "shared+least",
                                           "shared+fbarre",
                                           "shared+migration"));

} // namespace
