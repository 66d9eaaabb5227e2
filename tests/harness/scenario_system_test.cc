/**
 * @file
 * System tests for the multi-tenant scenario engine: deterministic
 * churn (bitwise-identical across partition domain counts, worker
 * threads, and harness job counts), full per-process teardown after
 * tenant exit, and the stale-ASID audit actually biting on a
 * corrupted TLB.
 *
 * Identity contract for dynamic (engine-driven) runs: the tagged
 * serial queue (sim_domains=1) and every partitioned shape are
 * bitwise identical; the legacy serial queue (sim_domains=0) is NOT
 * part of the contract — engine runs always use the tagged engine.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/csv.hh"
#include "harness/experiment.hh"
#include "harness/system.hh"
#include "tlb/tlb.hh"
#include "workloads/suite.hh"

using namespace barre;

namespace
{

constexpr std::uint32_t churn_n = 10;
constexpr double churn_rate = 2.0;
constexpr std::uint64_t churn_seed = 7;

ScenarioSpec
churnSpec()
{
    return ScenarioSpec::poisson(churn_n, churn_rate, churn_seed);
}

SystemConfig
barreSmall()
{
    SystemConfig cfg = SystemConfig::barreCfg();
    cfg.workload_scale = 0.03;
    return cfg;
}

struct RunOut
{
    std::string csv;
    std::vector<std::string> tenant_rows;
    std::string stats;
    std::vector<std::uint64_t> digests;
    bool tagged = false;
};

RunOut
runChurn(SystemConfig cfg)
{
    System sys(std::move(cfg));
    sys.loadScenario(churnSpec());
    RunMetrics m = sys.run();
    m.app = churnSpec().label();

    RunOut out;
    out.csv = csvRow(m);
    for (const TenantMetrics &t : m.tenants)
        out.tenant_rows.push_back(tenantCsvRow(t));
    std::ostringstream os;
    sys.dumpStats(os);
    out.stats = os.str();
    if (TaggedEngine *eng = sys.eventQueue().taggedEngine()) {
        out.tagged = true;
        out.digests = eng->fireDigests();
    }
    return out;
}

void
expectIdentical(const RunOut &a, const RunOut &b, const char *what)
{
    EXPECT_EQ(a.csv, b.csv) << what;
    EXPECT_EQ(a.tenant_rows, b.tenant_rows) << what;
    EXPECT_EQ(a.stats, b.stats) << what;
    EXPECT_TRUE(a.digests == b.digests) << what;
}

/**
 * barre, or one of the three F-Barre policy configs bench_tenants
 * reports: shared L2 TLB ways with a FIFO walker queue ("fbarre"),
 * per-tenant way partitions, and fair walker scheduling.
 */
SystemConfig
cfgFor(const std::string &name)
{
    if (name == "barre")
        return barreSmall();
    SystemConfig cfg = SystemConfig::fbarreCfg(2);
    cfg.workload_scale = 0.03;
    if (name == "fbarre+tlb_part")
        cfg.chiplet.l2_tlb.asid_partitions = 4;
    else if (name == "fbarre+fair_pw")
        cfg.iommu.fair_pw_sched = true;
    return cfg;
}

class ScenarioDeterminism : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ScenarioDeterminism, ChurnIsIdenticalAcrossDomainsAndThreads)
{
    SystemConfig base = cfgFor(GetParam());
    base.sim_domains = 1;
    base.sim_threads = 1;
    const RunOut ref = runChurn(base);
    ASSERT_TRUE(ref.tagged);
    ASSERT_EQ(ref.tenant_rows.size(), churn_n);

    // Run-to-run: the whole schedule is a pure function of the seed.
    expectIdentical(ref, runChurn(base), "second serial run");

    const std::uint32_t all = base.chiplets + 1; // host + each chiplet
    for (std::uint32_t domains : {2u, all}) {
        for (std::uint32_t threads : {1u, 8u}) {
            SystemConfig cfg = cfgFor(GetParam());
            cfg.sim_domains = domains;
            cfg.sim_threads = threads;
            const RunOut got = runChurn(cfg);
            EXPECT_TRUE(got.tagged);
            expectIdentical(
                ref, got,
                (std::string(GetParam()) +
                 " domains=" + std::to_string(domains) +
                 " threads=" + std::to_string(threads))
                    .c_str());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Policies, ScenarioDeterminism,
                         ::testing::Values("barre", "fbarre",
                                           "fbarre+tlb_part",
                                           "fbarre+fair_pw"));

TEST(ScenarioDeterminism, IndependentOfHarnessJobCount)
{
    // A (config x spec) grid of engine runs through the bench
    // harness: worker count must not leak into any cell, tenant rows
    // included (RunMetrics operator== is field-wise).
    std::vector<NamedConfig> cfgs = {
        {"barre", cfgFor("barre")},
        {"fbarre", cfgFor("fbarre")},
    };
    std::vector<ScenarioSpec> specs = {
        ScenarioSpec::poisson(6, 2.0, 7),
        ScenarioSpec::poisson(6, 2.0, 9),
    };
    auto serial = runMany(cfgs, specs, /*jobs=*/1);
    auto parallel = runMany(cfgs, specs, /*jobs=*/4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_TRUE(serial[i] == parallel[i]) << i;
}

TEST(ScenarioTeardown, ExitedTenantsLeaveNoResidue)
{
    SystemConfig cfg = barreSmall();
    cfg.sim_domains = cfg.chiplets + 1;
    System sys(cfg);
    sys.loadScenario(churnSpec());
    RunMetrics m = sys.run();

    ScenarioEngine *eng = sys.scenarioEngine();
    ASSERT_NE(eng, nullptr);
    EXPECT_TRUE(eng->allRetired());
    EXPECT_EQ(sys.stats().count("scenario.launches"), churn_n);
    EXPECT_EQ(sys.stats().count("scenario.retires"), churn_n);

    // Every tenant's page table is gone and the IOMMU dropped its
    // context — teardown ran once per process, not just the last.
    EXPECT_EQ(sys.driver().liveProcesses(), 0u);
    EXPECT_EQ(sys.iommu().processDetaches(), churn_n);
    EXPECT_NO_THROW(sys.auditNoStaleAsid());

    // Per-tenant metrics cover the full lifecycle in pid order.
    ASSERT_EQ(m.tenants.size(), churn_n);
    for (std::size_t i = 0; i < m.tenants.size(); ++i) {
        const TenantMetrics &t = m.tenants[i];
        EXPECT_EQ(t.pid, i + 1) << i;
        EXPECT_GT(t.accesses, 0u) << t.app;
        EXPECT_GT(t.finish, t.arrival) << t.app;
        // Retirement waits for the shootdown storm to be acked.
        EXPECT_GT(t.retired, t.finish) << t.app;
        EXPECT_LE(t.lat_p50, t.lat_p95) << t.app;
        EXPECT_LE(t.lat_p95, t.lat_p99) << t.app;
        EXPECT_GT(t.peak_l2_tlb, 0u) << t.app;
    }
}

TEST(ScenarioTeardown, StaleAsidEntryIsCaught)
{
    System sys(barreSmall());
    sys.loadScenario(churnSpec());
    (void)sys.run();
    ASSERT_NO_THROW(sys.auditNoStaleAsid());

    // Plant a ghost translation for an exited tenant in one L2 TLB:
    // the audit must panic, proving it checks real occupancy rather
    // than trusting the shootdown protocol.
    TlbEntry ghost;
    ghost.pid = 1;
    ghost.vpn = 0x9999;
    ghost.pfn = 7;
    ghost.valid = true;
    sys.chiplet(0).l2Tlb().insert(ghost);
    EXPECT_THROW(sys.auditNoStaleAsid(), std::logic_error);
}

TEST(ScenarioTeardown, ExplicitArrivalsRunTheEngineToo)
{
    // A fixed-tenant dynamic spec (no churn clause): "cov+atax@N"
    // launches atax mid-run and both exit through the same teardown.
    SystemConfig cfg = barreSmall();
    System sys(cfg);
    sys.loadScenario(parseScenarioSpec("cov+atax@50000"));
    RunMetrics m = sys.run();

    ASSERT_NE(sys.scenarioEngine(), nullptr);
    ASSERT_EQ(m.tenants.size(), 2u);
    EXPECT_EQ(m.tenants[0].app, "cov");
    EXPECT_EQ(m.tenants[1].app, "atax");
    EXPECT_EQ(m.tenants[1].arrival, 50000u);
    EXPECT_EQ(sys.driver().liveProcesses(), 0u);
    EXPECT_NO_THROW(sys.auditNoStaleAsid());
}

} // namespace
