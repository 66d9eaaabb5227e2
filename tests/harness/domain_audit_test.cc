/**
 * @file
 * The domain-ownership audit (sim/domain_guard.hh).
 *
 * Three layers of proof:
 *  - Corruption tests: a component touched from the wrong execution
 *    context actually throws in panic mode, and $BARRE_DOMAIN_AUDIT
 *    accepts exactly off and panic.
 *  - Formerly blocked configs: the configurations that once fell back
 *    to one domain because they raced on reads now partition and run
 *    panic-clean on several threads, or are refused at construction.
 *  - Clean configs: every configuration runs panic-clean under
 *    sim_domains>1 and bitwise identical to the serial reference
 *    (sim_domains=1).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/csv.hh"
#include "harness/system.hh"
#include "sim/invariant.hh"
#include "sim/logging.hh"
#include "tlb/tlb.hh"
#include "workloads/suite.hh"

using namespace barre;

namespace
{

TEST(DomainGuardCorruption, PanicFiresOnCrossDomainTouch)
{
    DomainGuard guard;
    guard.setMode(DomainAuditMode::panic);
    Tlb tlb(TlbParams{});
    tlb.bindDomain(&guard, chipletTag(0), "gpu0.l2tlb");

    EventQueue eq;
    {
        EventQueue::TagScope own(eq, chipletTag(0));
        EXPECT_NO_THROW(tlb.peek(1, 0));
    }
    {
        EventQueue::TagScope other(eq, chipletTag(1));
        EXPECT_THROW(tlb.peek(1, 0), std::logic_error);
    }
    // Outside any scope the ambient context is the host tag — still
    // not the owner.
    EXPECT_THROW(tlb.peek(1, 0), std::logic_error);
}

TEST(DomainGuardCorruption, WildcardOwnerAcceptsEveryTag)
{
    DomainGuard guard;
    guard.setMode(DomainAuditMode::panic);
    Tlb tlb(TlbParams{});
    tlb.bindDomain(&guard, kAnyDomain, "shared.tlb");

    EventQueue eq;
    EXPECT_NO_THROW(tlb.peek(1, 0));
    EventQueue::TagScope scope(eq, chipletTag(3));
    EXPECT_NO_THROW(tlb.peek(1, 0));
}

TEST(DomainGuardCorruption, UnboundComponentChecksNothing)
{
    Tlb tlb(TlbParams{});
    EXPECT_NO_THROW(tlb.peek(1, 0));
}

TEST(DomainGuard, ResolveModeParsesEnv)
{
    constexpr auto off = DomainAuditMode::off;
    constexpr auto panic = DomainAuditMode::panic;

    setenv("BARRE_DOMAIN_AUDIT", "off", 1);
    EXPECT_EQ(DomainGuard::resolveMode(panic, true), off);
    setenv("BARRE_DOMAIN_AUDIT", "panic", 1);
    EXPECT_EQ(DomainGuard::resolveMode(off, false), panic);

    // "report" and garbage are both clean fatals that name the
    // accepted values.
    for (const char *bad : {"report", "pnaic"}) {
        setenv("BARRE_DOMAIN_AUDIT", bad, 1);
        try {
            (void)DomainGuard::resolveMode(off, false);
            ADD_FAILURE() << bad << " was accepted";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("expected off or panic"),
                      std::string::npos)
                << e.what();
        }
    }

    // Unset: a pre-armed mode is kept; a partitioned run auto-arms
    // panic only under an invariant build.
    unsetenv("BARRE_DOMAIN_AUDIT");
    EXPECT_EQ(DomainGuard::resolveMode(panic, false), panic);
    EXPECT_EQ(DomainGuard::resolveMode(off, false), off);
    EXPECT_EQ(DomainGuard::resolveMode(off, true),
              invariants_enabled ? panic : off);
}

TEST(DomainAudit, BlockedConfigsAreReadRaceOnly)
{
    // Validated demand paging used to be refused partitioning: its
    // chiplet-side validators read the page table while the host-side
    // fault handler writes it. That crossing is read-only — the table
    // is safe for one writer and concurrent walkers — so it must stay
    // panic-clean when the domains really do run on several threads.
    // A panic here means a synchronous write-side crossing appeared;
    // route it over a Link/message path (DESIGN.md §8).
    SystemConfig demand = SystemConfig::baselineAts();
    demand.driver.demand_paging = true;
    demand.validate_translations = true;
    demand.workload_scale = 0.02;
    demand.sim_domains = 4;
    for (std::uint32_t threads : {1u, 4u}) {
        SystemConfig cfg = demand;
        cfg.sim_threads = threads;
        EXPECT_NO_THROW({
            System sys(std::move(cfg));
            sys.domainGuard().setMode(DomainAuditMode::panic);
            sys.loadScenario(ScenarioSpec::solo("cov"));
            (void)sys.run();
            EXPECT_TRUE(sys.partitioned()) << "ran as one domain";
        }) << "demand_paging+validate sim_threads=" << threads;
    }

    // The other formerly blocked config, migration under the GMMU, is
    // not modeled: it must be refused before any domain runs rather
    // than partition with an unaudited page-table race.
    SystemConfig mg = SystemConfig::baselineAts();
    mg.use_gmmu = true;
    mg.mode = TranslationMode::barre;
    mg.migration.enabled = true;
    mg.migration.threshold = 4;
    mg.driver.policy = MappingPolicyKind::round_robin;
    mg.sim_domains = 4;
    EXPECT_THROW(System{mg}, FatalError);
}

struct CleanRun
{
    std::string csv;
    std::string stats;
};

CleanRun
cleanRun(SystemConfig cfg, std::uint32_t domains)
{
    cfg.workload_scale = 0.04;
    cfg.sim_domains = domains;
    cfg.sim_threads = 1;
    System sys(std::move(cfg));
    sys.domainGuard().setMode(DomainAuditMode::panic);
    sys.loadScenario(ScenarioSpec::solo("cov"));
    RunMetrics m = sys.run();

    CleanRun out;
    out.csv = csvRow(m);
    std::ostringstream os;
    sys.dumpStats(os);
    out.stats = os.str();
    return out;
}

TEST(DomainAudit, PartitionableConfigsAuditCleanAndBitwiseIdentical)
{
    std::vector<std::pair<const char *, SystemConfig>> cfgs;
    cfgs.emplace_back("baseline", SystemConfig::baselineAts());
    cfgs.emplace_back("barre", SystemConfig::barreCfg());
    cfgs.emplace_back("fbarre", SystemConfig::fbarreCfg());
    SystemConfig gmmu;
    gmmu.use_gmmu = true;
    gmmu.mode = TranslationMode::barre;
    cfgs.emplace_back("gmmu", gmmu);

    // The configs the message-path conversions unblocked.
    cfgs.emplace_back("valkyrie", SystemConfig::valkyrieCfg());
    cfgs.emplace_back("least", SystemConfig::leastCfg());
    SystemConfig shared = SystemConfig::baselineAts();
    shared.shared_l2_tlb = true;
    cfgs.emplace_back("shared_l2_tlb", shared);
    SystemConfig mig = SystemConfig::baselineAts();
    mig.migration.enabled = true;
    mig.migration.threshold = 4;
    mig.driver.policy = MappingPolicyKind::round_robin;
    cfgs.emplace_back("migration", mig);
    SystemConfig oracle = SystemConfig::fbarreCfg();
    oracle.fbarre.oracle_sharing = true;
    cfgs.emplace_back("fbarre_oracle", oracle);

    // And the second wave: demand paging, services layered on the
    // shared L2 TLB, and shared-TLB migration shootdowns.
    SystemConfig demand = SystemConfig::baselineAts();
    demand.driver.demand_paging = true;
    cfgs.emplace_back("demand_paging", demand);
    // Chiplet-side validators walk the table the host faults into.
    demand.validate_translations = true;
    cfgs.emplace_back("demand_paging+validate", demand);
    SystemConfig sv = SystemConfig::valkyrieCfg();
    sv.shared_l2_tlb = true;
    cfgs.emplace_back("shared+valkyrie", sv);
    SystemConfig sl = SystemConfig::leastCfg();
    sl.shared_l2_tlb = true;
    cfgs.emplace_back("shared+least", sl);
    SystemConfig sf = SystemConfig::fbarreCfg();
    sf.shared_l2_tlb = true;
    cfgs.emplace_back("shared+fbarre", sf);
    SystemConfig sm = SystemConfig::baselineAts();
    sm.shared_l2_tlb = true;
    sm.migration.enabled = true;
    sm.migration.threshold = 4;
    sm.driver.policy = MappingPolicyKind::round_robin;
    cfgs.emplace_back("shared+migration", sm);

    for (auto &[name, cfg] : cfgs) {
        CleanRun serial, part;
        EXPECT_NO_THROW(serial = cleanRun(cfg, 1)) << name << " serial";
        EXPECT_NO_THROW(part = cleanRun(cfg, 4)) << name << " partitioned";
        EXPECT_EQ(serial.csv, part.csv) << name;
        EXPECT_EQ(serial.stats, part.stats) << name;
    }
}

} // namespace
