/**
 * @file
 * runMany() must produce results bitwise identical to the serial loop,
 * in the same order, for every worker count.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
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

TEST(RunMany, CostCachePersistsWallTimesAndStaysDeterministic)
{
    std::string path = testing::TempDir() + "barre_cost_cache_test";
    std::remove(path.c_str());
    setenv("BARRE_COST_CACHE", path.c_str(), 1);

    auto cfgs = testConfigs();
    auto specs = testSpecs();
    std::vector<RunMetrics> first = runMany(cfgs, specs, 2);

    // The cache file now holds one "config/app  seconds" line per cell.
    std::ifstream is(path);
    ASSERT_TRUE(is.good());
    std::map<std::string, double> cache;
    std::string key;
    double secs;
    while (is >> key >> secs)
        cache[key] = secs;
    EXPECT_EQ(cache.size(), cfgs.size() * specs.size());
    EXPECT_TRUE(cache.count("baseline/gups"));
    for (const auto &[k, v] : cache)
        EXPECT_GT(v, 0.0) << k;

    // A second sweep consumes the cached costs as scheduling hints;
    // results must be unaffected.
    std::vector<RunMetrics> second = runMany(cfgs, specs, 2);
    unsetenv("BARRE_COST_CACHE");
    std::remove(path.c_str());
    EXPECT_EQ(first, second);
}

namespace
{

/** Point $BARRE_COST_CACHE at a fresh file holding @p text. */
std::string
writeCostCache(const char *name, const std::string &text)
{
    std::string path = testing::TempDir() + name;
    std::ofstream(path) << text;
    setenv("BARRE_COST_CACHE", path.c_str(), 1);
    return path;
}

/** runMany's fatal message for a malformed cache, or "" if none. */
std::string
costCacheError(const char *name, const std::string &text)
{
    const std::string path = writeCostCache(name, text);
    std::string msg;
    try {
        (void)runMany(testConfigs(), {ScenarioSpec::solo("fft")}, 1);
    } catch (const std::runtime_error &e) {
        msg = e.what();
    }
    unsetenv("BARRE_COST_CACHE");
    std::remove(path.c_str());
    return msg;
}

} // namespace

TEST(RunMany, CostCacheRejectsTrailingGarbage)
{
    const std::string msg = costCacheError(
        "cost_cache_garbage", "baseline/fft\t0.5\nfbarre/gups\t1.5junk\n");
    EXPECT_NE(msg.find("cost_cache_garbage:2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("1.5junk"), std::string::npos) << msg;
}

TEST(RunMany, CostCacheRejectsNonNumericValue)
{
    const std::string msg =
        costCacheError("cost_cache_word", "baseline/fft\tfast\n");
    EXPECT_NE(msg.find("cost_cache_word:1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("not a number"), std::string::npos) << msg;

    // A space instead of the tab leaves no value to parse at all.
    EXPECT_NE(costCacheError("cost_cache_space", "baseline/fft 0.5\n")
                  .find("cost_cache_space:1"),
              std::string::npos);
}

TEST(RunMany, CostCacheRejectsZeroValue)
{
    const std::string msg =
        costCacheError("cost_cache_zero", "baseline/fft\t0\n");
    EXPECT_NE(msg.find("cost_cache_zero:1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("must be > 0"), std::string::npos) << msg;
}

TEST(RunMany, CostCacheRoundTripsCleanFile)
{
    // Entries for cells outside the sweep are loaded and written back
    // unchanged; the rewritten file loads again without complaint.
    const std::string path = writeCostCache(
        "cost_cache_clean", "other/gups\t1.5\nother/matr\t2.5e-05\n");
    const std::vector<ScenarioSpec> specs = {ScenarioSpec::solo("fft")};
    const std::vector<RunMetrics> first = runMany(testConfigs(), specs, 1);
    const std::vector<RunMetrics> second = runMany(testConfigs(), specs, 1);
    unsetenv("BARRE_COST_CACHE");
    EXPECT_EQ(first, second);

    std::ifstream is(path);
    std::map<std::string, std::string> lines;
    std::string line;
    while (std::getline(is, line)) {
        const std::size_t tab = line.find('\t');
        ASSERT_NE(tab, std::string::npos) << line;
        lines[line.substr(0, tab)] = line.substr(tab + 1);
    }
    std::remove(path.c_str());
    EXPECT_EQ(lines.size(), 4u);
    EXPECT_EQ(lines["other/gups"], "1.5");
    EXPECT_EQ(lines["other/matr"], "2.5e-05");
    EXPECT_TRUE(lines.count("baseline/fft"));
    EXPECT_TRUE(lines.count("fbarre/fft"));
}
