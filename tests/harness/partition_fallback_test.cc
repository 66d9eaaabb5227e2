/**
 * @file
 * The documented partition fallback, config by config: every
 * non-partitionable configuration asked to partition must emit the
 * `sim_domains=… ignored` warning exactly once, run as one domain, and
 * produce results bit-identical to sim_domains=1.
 * Conversely, every configuration the message-path work unblocked must
 * partition without a warning — a config can never both partition and
 * warn.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "harness/csv.hh"
#include "harness/system.hh"
#include "sim/logging.hh"
#include "workloads/suite.hh"

using namespace barre;

namespace
{

struct FallbackOut
{
    std::string csv;
    std::string stats;
    bool partitioned = false;
    int warnings = 0;
};

FallbackOut
runCfg(SystemConfig cfg, std::uint32_t domains)
{
    cfg.workload_scale = 0.02;
    cfg.sim_domains = domains;

    FallbackOut out;
    beginLogBuffer();
    System sys(std::move(cfg));
    LogBlock log = endLogBuffer();
    for (const auto &line : log.lines)
        if (line.text.find("ignored:") != std::string::npos)
            ++out.warnings;

    sys.loadScenario(ScenarioSpec::solo("cov"));
    RunMetrics m = sys.run();

    out.csv = csvRow(m);
    std::ostringstream os;
    sys.dumpStats(os);
    out.stats = os.str();
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
    if (name == "demand_paging+validate") {
        SystemConfig cfg = SystemConfig::baselineAts();
        cfg.driver.demand_paging = true;
        cfg.validate_translations = true;
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
    if (name == "shared+migration") {
        SystemConfig cfg = SystemConfig::baselineAts();
        cfg.shared_l2_tlb = true;
        cfg.migration.enabled = true;
        cfg.migration.threshold = 4;
        cfg.driver.policy = MappingPolicyKind::round_robin;
        return cfg;
    }
    // migration+gmmu
    SystemConfig cfg = SystemConfig::baselineAts();
    cfg.use_gmmu = true;
    cfg.mode = TranslationMode::barre;
    cfg.migration.enabled = true;
    cfg.migration.threshold = 4;
    cfg.driver.policy = MappingPolicyKind::round_robin;
    return cfg;
}

class PartitionFallback : public ::testing::TestWithParam<const char *>
{};

TEST_P(PartitionFallback, WarnsOnceAndMatchesSerialBitwise)
{
    const SystemConfig cfg = cfgFor(GetParam());

    const FallbackOut serial = runCfg(cfg, 1);
    EXPECT_FALSE(serial.partitioned);
    EXPECT_EQ(serial.warnings, 0);

    const FallbackOut fell_back = runCfg(cfg, 5);
    EXPECT_FALSE(fell_back.partitioned) << "config partitioned anyway";
    EXPECT_EQ(fell_back.warnings, 1)
        << "the fallback warning must fire exactly once";
    EXPECT_EQ(serial.csv, fell_back.csv);
    EXPECT_EQ(serial.stats, fell_back.stats);
}

INSTANTIATE_TEST_SUITE_P(AllBlockedConfigs, PartitionFallback,
                         ::testing::Values("demand_paging+validate",
                                           "migration+gmmu"));

class PartitionUnblocked : public ::testing::TestWithParam<const char *>
{};

TEST_P(PartitionUnblocked, PartitionsWithoutWarning)
{
    const FallbackOut out = runCfg(cfgFor(GetParam()), 4);
    // The warn-once fallback path for this config is gone: it splits
    // into domains and stays silent. (Partitioning while also warning
    // would mean a stale warn path survived the unblocking.)
    EXPECT_TRUE(out.partitioned) << "config fell back to one domain";
    EXPECT_EQ(out.warnings, 0)
        << "a config must never both partition and warn";
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
