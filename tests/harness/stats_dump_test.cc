/**
 * @file
 * Tests for System::dumpStats and its agreement with RunMetrics.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "harness/experiment.hh"

using namespace barre;

namespace
{

/** Dump lines as name -> value text; fails the test on a bad line. */
std::map<std::string, std::string>
parseDump(const std::string &dump)
{
    std::map<std::string, std::string> lines;
    std::istringstream is(dump);
    std::string line;
    while (std::getline(is, line)) {
        const auto sp = line.find(' ');
        EXPECT_NE(sp, std::string::npos) << "line '" << line << "'";
        EXPECT_EQ(line.find(' ', sp + 1), std::string::npos)
            << "line '" << line << "'";
        const bool fresh =
            lines.emplace(line.substr(0, sp), line.substr(sp + 1)).second;
        EXPECT_TRUE(fresh) << "duplicate stat '" << line << "'";
    }
    return lines;
}

/** The whole-line value of @p key, or ~0 when no line names it. */
std::uint64_t
statValue(const std::map<std::string, std::string> &lines,
          const std::string &key)
{
    auto it = lines.find(key);
    if (it == lines.end())
        return ~std::uint64_t{0};
    return std::stoull(it->second);
}

/** Sum of gpuN.@p stat over @p chiplets chiplets. */
std::uint64_t
chipletSum(const std::map<std::string, std::string> &lines,
           std::uint32_t chiplets, const std::string &stat)
{
    std::uint64_t sum = 0;
    for (std::uint32_t c = 0; c < chiplets; ++c)
        sum += statValue(lines, "gpu" + std::to_string(c) + "." + stat);
    return sum;
}

std::string
dumpOf(const System &sys)
{
    std::ostringstream os;
    sys.dumpStats(os);
    return os.str();
}

struct Case
{
    const char *label;
    SystemConfig cfg;
    ScenarioSpec spec;
};

std::vector<Case>
coverageCases()
{
    std::vector<Case> cases;
    SystemConfig base = SystemConfig::baselineAts();
    base.workload_scale = 0.04;
    cases.push_back({"baseline", base, ScenarioSpec::solo("cov")});

    SystemConfig fb = SystemConfig::fbarreCfg(2);
    fb.workload_scale = 0.04;
    cases.push_back({"fbarre", fb, ScenarioSpec::solo("cov")});

    SystemConfig gmmu = fb;
    gmmu.use_gmmu = true;
    cases.push_back({"gmmu", gmmu, ScenarioSpec::solo("cov")});

    SystemConfig mig = fb;
    mig.migration.enabled = true;
    mig.migration.threshold = 4;
    cases.push_back({"migration", mig, ScenarioSpec::solo("cov")});

    SystemConfig churn = SystemConfig::fbarreCfg(2);
    churn.workload_scale = 0.03;
    cases.push_back({"churn", churn, ScenarioSpec::poisson(4, 2.0, 7)});
    return cases;
}

/**
 * Registry-backed RunMetrics count fields and the stat each reads,
 * listed apart from kMetricFields so a wrong row there fails here.
 */
struct CountField
{
    const char *stat; ///< "gpu*." = summed over chiplets
    std::uint64_t RunMetrics::*field;
};

const CountField kCountFields[] = {
    {"gpu*.l2tlb.misses", &RunMetrics::l2_tlb_misses},
    {"gpu*.l2tlb.mshr_retries", &RunMetrics::mshr_retries},
    {"gpu*.data.local", &RunMetrics::local_data},
    {"gpu*.data.remote", &RunMetrics::remote_data},
    {"iommu.ats_requests", &RunMetrics::ats_packets},
    {"iommu.walks", &RunMetrics::walks},
    {"iommu.pec_calculated", &RunMetrics::iommu_coalesced},
    {"iommu.tlb_hits", &RunMetrics::iommu_tlb_hits},
    {"fbarre.local_calc_hits", &RunMetrics::local_calc_hits},
    {"fbarre.remote_probes", &RunMetrics::remote_probes},
    {"fbarre.remote_hits", &RunMetrics::remote_hits},
    {"fbarre.fallbacks", &RunMetrics::fbarre_fallbacks},
    {"fbarre.lcf_positives", &RunMetrics::lcf_positives},
    {"fbarre.lcf_true_positives", &RunMetrics::lcf_true_positives},
    {"fbarre.filter_updates", &RunMetrics::filter_updates},
    {"noc.bytes", &RunMetrics::noc_bytes},
    {"pcie.up_bytes", &RunMetrics::pcie_up_bytes},
    {"pcie.down_bytes", &RunMetrics::pcie_down_bytes},
    {"gmmu.local_walks", &RunMetrics::gmmu_local_walks},
    {"gmmu.remote_walks", &RunMetrics::gmmu_remote_walks},
    {"gmmu.pec_calculated", &RunMetrics::gmmu_coalesced},
    {"driver.coalesced_pages", &RunMetrics::coalesced_pages},
    {"driver.mapped_pages", &RunMetrics::mapped_pages},
    {"migration.count", &RunMetrics::migrations},
};

const struct
{
    const char *stat;
    double RunMetrics::*field;
} kMeanFields[] = {
    {"iommu.avg_processing_cycles", &RunMetrics::avg_ats_time},
    {"iommu.avg_pw_queue_depth", &RunMetrics::avg_pw_queue_depth},
};

} // namespace

TEST(StatsDump, CoversCoreComponentsAndMatchesMetrics)
{
    // Every field row must be exercised by at least one case.
    std::map<std::string, bool> seen;
    for (const Case &c : coverageCases()) {
        SCOPED_TRACE(c.label);
        System sys(c.cfg);
        sys.loadScenario(c.spec);
        const RunMetrics m = sys.run();
        const std::string dump = dumpOf(sys);
        const auto lines = parseDump(dump);
        const std::uint32_t chiplets = c.cfg.chiplets;

        ASSERT_EQ(dump.rfind("sim.ticks ", 0), 0u);
        // A churn run's runtime is its last retire, before the drain.
        if (!sys.scenarioEngine()) {
            EXPECT_EQ(statValue(lines, "sim.ticks"), m.runtime);
        }
        for (const CountField &f : kCountFields) {
            SCOPED_TRACE(f.stat);
            const std::string stat = f.stat;
            if (stat.rfind("gpu*.", 0) == 0) {
                EXPECT_EQ(chipletSum(lines, chiplets, stat.substr(5)),
                          m.*f.field);
                seen[stat] = true;
            } else if (lines.count(stat)) {
                EXPECT_EQ(statValue(lines, stat), m.*f.field);
                seen[stat] = true;
            } else {
                EXPECT_EQ(m.*f.field, 0u);
            }
        }
        EXPECT_EQ(m.l2_tlb_hits,
                  chipletSum(lines, chiplets, "l2tlb.accesses") -
                      m.l2_tlb_misses);
        for (const auto &f : kMeanFields) {
            SCOPED_TRACE(f.stat);
            std::ostringstream want;
            want << m.*f.field;
            ASSERT_TRUE(lines.count(f.stat));
            EXPECT_EQ(lines.at(f.stat), want.str());
        }
        EXPECT_EQ(lines.count("scenario.launches") != 0,
                  sys.scenarioEngine() != nullptr);
    }
    for (const CountField &f : kCountFields)
        EXPECT_TRUE(seen[f.stat]) << f.stat << " never dumped";
}

TEST(StatsDump, L2TlbHitsPlusMissesEqualAccesses)
{
    for (bool shared : {false, true}) {
        SCOPED_TRACE(shared ? "shared_l2_tlb" : "private");
        SystemConfig cfg = SystemConfig::baselineAts();
        cfg.shared_l2_tlb = shared;
        cfg.workload_scale = 0.04;
        System sys(cfg);
        sys.loadScenario(ScenarioSpec::solo("gups"));
        const RunMetrics m = sys.run();
        const auto lines = parseDump(dumpOf(sys));
        const std::uint64_t accesses =
            chipletSum(lines, cfg.chiplets, "l2tlb.accesses");
        EXPECT_EQ(m.l2_tlb_hits + m.l2_tlb_misses, accesses);
        EXPECT_EQ(m.l2_tlb_misses,
                  chipletSum(lines, cfg.chiplets, "l2tlb.misses"));
        EXPECT_LT(m.l2_tlb_hits, accesses);
    }
}

TEST(StatsDump, BaselineOmitsFBarreSection)
{
    SystemConfig cfg = SystemConfig::baselineAts();
    cfg.workload_scale = 0.04;
    System sys(cfg);
    sys.loadScenario(ScenarioSpec::solo("fft"));
    sys.run();
    const std::string dump = dumpOf(sys);
    EXPECT_EQ(dump.find("fbarre."), std::string::npos);
    EXPECT_EQ(dump.find("gmmu."), std::string::npos);
    // Static runs have no scenario engine, hence no scenario section.
    EXPECT_EQ(dump.find("scenario."), std::string::npos);
}
