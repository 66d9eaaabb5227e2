/**
 * @file
 * Frozen shared configuration handles: one immutable SystemConfig can
 * back many Systems, and equality over SystemConfig is deep.
 */

#include <type_traits>

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "harness/system.hh"
#include "workloads/suite.hh"

using namespace barre;

namespace
{

TEST(SharedConfig, FreezeNormalizes)
{
    SystemConfig cfg = SystemConfig::barreCfg();
    SystemConfigHandle h = freezeConfig(cfg);
    // normalize() couples mode-implied fields; barre mode must have
    // switched the IOMMU's PEC logic on in the frozen copy.
    EXPECT_TRUE(h->iommu.barre);
    EXPECT_EQ(h->chiplet.cus, h->cus_per_chiplet);
}

TEST(SharedConfig, HandleIsImmutable)
{
    SystemConfigHandle h = freezeConfig(SystemConfig{});
    static_assert(std::is_const_v<std::remove_reference_t<decltype(*h)>>,
                  "a frozen config must be const-qualified — cells "
                  "sharing it could otherwise race on mutation");
    SUCCEED();
}

TEST(SharedConfig, ManySystemsShareOneHandle)
{
    SystemConfig cfg;
    cfg.workload_scale = 0.02;
    SystemConfigHandle h = freezeConfig(cfg);
    EXPECT_EQ(h.use_count(), 1);
    {
        System a(h);
        System b(h);
        EXPECT_EQ(h.use_count(), 3);
        // Both see the very same object, not equal copies.
        EXPECT_EQ(&a.config(), h.get());
        EXPECT_EQ(&b.config(), h.get());
    }
    EXPECT_EQ(h.use_count(), 1);
}

TEST(SharedConfig, DeepEqualityCoversNestedParams)
{
    SystemConfig a = SystemConfig::fbarreCfg();
    SystemConfig b = SystemConfig::fbarreCfg();
    EXPECT_TRUE(a == b);

    b.chiplet.l2_tlb.entries += 1; // deep: nested param of a param
    EXPECT_FALSE(a == b);
    b = a;
    b.validate_translations = true;
    EXPECT_FALSE(a == b);
    b = a;
    EXPECT_TRUE(a == b);
}

TEST(SharedConfig, HandleRunMatchesValueRun)
{
    SystemConfig cfg;
    cfg.mode = TranslationMode::barre;
    cfg.workload_scale = 0.04;
    const ScenarioSpec spec = ScenarioSpec::solo("cov");
    RunMetrics by_value = runScenario(cfg, spec);
    RunMetrics by_handle = runScenario(freezeConfig(cfg), spec);
    EXPECT_TRUE(by_value == by_handle);
}

TEST(SharedConfig, RunManyCellsAgreeWithPerCellCopies)
{
    // runMany now freezes one handle per column; its results must be
    // indistinguishable from running each cell with its own copy.
    SystemConfig cfg;
    cfg.mode = TranslationMode::barre;
    cfg.workload_scale = 0.02;
    std::vector<NamedConfig> cols = {{"barre", cfg}};
    // Shrunk copies registered under fresh names: the registry is
    // process-wide, so tests must not shadow the suite entries.
    std::vector<ScenarioSpec> specs;
    for (const char *name : {"cov", "gups"}) {
        AppParams app = appByName(name);
        app.name = std::string(name) + "-small";
        app.ctas = std::max<std::uint32_t>(1, app.ctas / 8);
        registerScenarioApp(app);
        specs.push_back(ScenarioSpec::solo(app.name));
    }

    std::vector<RunMetrics> grid = runMany(cols, specs, 2);
    ASSERT_EQ(grid.size(), 2u);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        RunMetrics solo = runScenario(cfg, specs[i]);
        solo.config = "barre";
        EXPECT_TRUE(grid[i] == solo) << specs[i].label();
    }
}

} // namespace
