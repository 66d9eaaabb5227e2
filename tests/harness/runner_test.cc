/**
 * @file
 * runMany() must produce results bitwise identical to the serial loop,
 * in the same order, for every worker count.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "harness/experiment.hh"

using namespace barre;

namespace
{

std::vector<NamedConfig>
testConfigs()
{
    SystemConfig base = SystemConfig::baselineAts();
    base.workload_scale = 0.04;
    SystemConfig fb = SystemConfig::fbarreCfg(2);
    fb.workload_scale = 0.04;
    return {{"baseline", base}, {"fbarre", fb}};
}

std::vector<ScenarioSpec>
testSpecs()
{
    return {ScenarioSpec::solo("fft"), ScenarioSpec::solo("atax"),
            ScenarioSpec::solo("gups")};
}

} // namespace

TEST(RunMany, MatchesSerialLoopCellForCell)
{
    auto cfgs = testConfigs();
    auto specs = testSpecs();

    // Hand-rolled serial reference, config-major like runMany.
    std::vector<RunMetrics> expect;
    for (const auto &nc : cfgs) {
        for (const auto &spec : specs) {
            RunMetrics m = runScenario(nc.cfg, spec);
            m.config = nc.name;
            expect.push_back(m);
        }
    }

    std::vector<RunMetrics> got = runMany(cfgs, specs, /*jobs=*/1);
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], expect[i]) << "cell " << i;
}

TEST(RunMany, ResultsIndependentOfThreadCount)
{
    auto cfgs = testConfigs();
    auto specs = testSpecs();

    std::vector<RunMetrics> serial = runMany(cfgs, specs, 1);
    ASSERT_EQ(serial.size(), cfgs.size() * specs.size());
    for (unsigned jobs : {2u, 8u}) {
        std::vector<RunMetrics> par = runMany(cfgs, specs, jobs);
        ASSERT_EQ(par.size(), serial.size()) << jobs << " jobs";
        for (std::size_t i = 0; i < serial.size(); ++i)
            EXPECT_EQ(par[i], serial[i])
                << "cell " << i << " with " << jobs << " jobs";
    }
}

TEST(RunMany, ConfigAndAppLabelsFollowGridOrder)
{
    auto cfgs = testConfigs();
    auto specs = testSpecs();
    std::vector<RunMetrics> got = runMany(cfgs, specs, 2);
    ASSERT_EQ(got.size(), 6u);
    for (std::size_t c = 0; c < cfgs.size(); ++c) {
        for (std::size_t a = 0; a < specs.size(); ++a) {
            const RunMetrics &m = got[c * specs.size() + a];
            EXPECT_EQ(m.config, cfgs[c].name);
            EXPECT_EQ(m.app, specs[a].label());
        }
    }
}

TEST(RunMany, FlatCellsMatchTheirGridCells)
{
    auto cfgs = testConfigs();
    auto specs = testSpecs();
    std::vector<RunMetrics> grid = runMany(cfgs, specs, 1);

    // Any subset, in any order, with repeats: cell k is its grid cell.
    std::vector<CellRef> cells{{1, 2}, {0, 0}, {1, 2}, {0, 1}};
    for (unsigned jobs : {1u, 4u}) {
        std::vector<RunMetrics> got = runMany(cfgs, specs, cells, jobs);
        ASSERT_EQ(got.size(), cells.size());
        for (std::size_t k = 0; k < cells.size(); ++k)
            EXPECT_EQ(got[k],
                      grid[cells[k].config * specs.size() + cells[k].spec])
                << "cell " << k << " with " << jobs << " jobs";
    }
}

TEST(RunManyJobs, ArbitraryThunksKeepArgumentOrder)
{
    SystemConfig cfg = SystemConfig::baselineAts();
    cfg.workload_scale = 0.04;
    std::vector<std::function<RunMetrics()>> sims;
    std::vector<std::string> names{"gups", "fft", "atax"};
    for (const auto &n : names)
        sims.push_back([cfg, n] {
            return runScenario(cfg, ScenarioSpec::solo(n));
        });

    std::vector<RunMetrics> got = runManyJobs(sims, 4);
    ASSERT_EQ(got.size(), names.size());
    for (std::size_t i = 0; i < names.size(); ++i)
        EXPECT_EQ(got[i].app, names[i]);
}

TEST(RunManyJobs, LongestFirstHintsKeepResultsBitwiseIdentical)
{
    SystemConfig cfg = SystemConfig::baselineAts();
    cfg.workload_scale = 0.04;
    std::vector<std::string> names{"gups", "fft", "atax", "matr"};
    std::vector<std::function<RunMetrics()>> sims;
    std::vector<double> hints;
    for (const auto &n : names) {
        sims.push_back([cfg, n] {
            return runScenario(cfg, ScenarioSpec::solo(n));
        });
        hints.push_back(cellCostHint(appByName(n)));
    }

    std::vector<RunMetrics> serial = runManyJobs(sims, hints, 1);
    ASSERT_EQ(serial.size(), names.size());
    for (std::size_t i = 0; i < names.size(); ++i)
        EXPECT_EQ(serial[i].app, names[i]);

    for (unsigned jobs : {2u, 8u}) {
        std::vector<RunMetrics> par = runManyJobs(sims, hints, jobs);
        ASSERT_EQ(par.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i)
            EXPECT_EQ(par[i], serial[i])
                << "cell " << i << " with " << jobs << " jobs";
    }
}

TEST(RunManyJobs, HintCountMismatchPanics)
{
    std::vector<std::function<RunMetrics()>> sims(3, [] {
        return RunMetrics{};
    });
    std::vector<double> hints{1.0, 2.0};
    EXPECT_THROW(runManyJobs(sims, hints, 2), std::logic_error);
}

TEST(CellCostHint, HighMpkiAppsCostMore)
{
    // gups (high MPKI class) must sort before fft (low class) so the
    // longest cell starts first.
    EXPECT_GT(cellCostHint(appByName("gups")),
              cellCostHint(appByName("fft")));
    EXPECT_GT(cellCostHint(appByName("matr")),
              cellCostHint(appByName("gemv")));

    // The cell form scales with the config's workload_scale, so a
    // weak-scaled or enlarged cell starts ahead of its scale-1 twin.
    SystemConfig one = SystemConfig::baselineAts();
    SystemConfig four = one;
    four.workload_scale = 4.0;
    const ScenarioSpec gups = ScenarioSpec::solo("gups");
    EXPECT_DOUBLE_EQ(cellCostHint(four, gups),
                     4.0 * cellCostHint(one, gups));
    EXPECT_GT(cellCostHint(one, gups),
              cellCostHint(one, ScenarioSpec::solo("fft")));
}

TEST(RunMany, SpareWorkersHandedToPartitionedCellsStayBitwise)
{
    // 2 cells on 8 workers: the sweep hands each partitioned cell
    // (sim_domains > 0, sim_threads unset) the 4 leftover workers as
    // sim_threads. The scheduler's thread count must never leak into
    // results, so the sweep stays bitwise identical to a hand-rolled
    // serial loop pinned to one scheduler thread.
    SystemConfig cfg = SystemConfig::fbarreCfg(2);
    cfg.workload_scale = 0.04;
    cfg.sim_domains = 4;
    std::vector<NamedConfig> cfgs{{"fbarre_pdes", cfg}};
    std::vector<ScenarioSpec> specs{ScenarioSpec::solo("fft"),
                                    ScenarioSpec::solo("gups")};

    SystemConfig ref_cfg = cfg;
    ref_cfg.sim_threads = 1;
    std::vector<RunMetrics> expect;
    for (const auto &spec : specs) {
        RunMetrics m = runScenario(ref_cfg, spec);
        m.config = "fbarre_pdes";
        expect.push_back(m);
    }

    std::vector<RunMetrics> got = runMany(cfgs, specs, /*jobs=*/8);
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], expect[i]) << "cell " << i;
}
