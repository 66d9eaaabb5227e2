/**
 * @file
 * A04 (§VII extension, after MASK): multi-tenant churn. One row per
 * (policy config, tenant count, churn rate) cell of a seeded-Poisson
 * churn scenario (fixed seed, so every cell is reproducible) under the
 * F-Barre flagship config and its ASID-aware policy variants:
 *
 *   - fbarre:          shared L2 TLB ways, FIFO page-walker queue;
 *   - fbarre+tlb_part: per-tenant static way partitioning in every
 *                      L2 TLB (chiplet.l2_tlb.asid_partitions);
 *   - fbarre+fair_pw:  per-tenant fair page-walker scheduling at the
 *                      IOMMU (iommu.fair_pw_sched) instead of FIFO.
 *
 * Reported per cell: runtime, the mean and worst tenant slowdown
 * versus the same application running alone on the same config (the
 * multi-tenant interference cost), and the worst tenant p99
 * translation latency. The main grid runs at 0.1 x $BARRE_SCALE; the
 * "-smoke" rows are one 8-tenant cell at 0.02 x $BARRE_SCALE.
 */

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "sim/logging.hh"

namespace barre::bench
{

namespace
{

constexpr std::uint64_t churn_seed = 7;

/** The ASID-aware policy columns, their names ending in @p suffix. */
std::vector<NamedConfig>
policyConfigs(const std::string &suffix)
{
    SystemConfig part = SystemConfig::fbarreCfg(2);
    // 16 ways per set carved into 4 static per-tenant slices.
    part.chiplet.l2_tlb.asid_partitions = 4;
    SystemConfig fair = SystemConfig::fbarreCfg(2);
    fair.iommu.fair_pw_sched = true;
    return {{"fbarre" + suffix, SystemConfig::fbarreCfg(2)},
            {"fbarre+tlb_part" + suffix, part},
            {"fbarre+fair_pw" + suffix, fair}};
}

/**
 * The churn cells of @p tenant_grid x @p churn_grid, followed by the
 * solo-reference cells of every app their schedules draw (the
 * denominator of the slowdown columns).
 */
Grid
churnGrid(const std::string &suffix,
          const std::vector<std::uint32_t> &tenant_grid,
          const std::vector<double> &churn_grid, double scale)
{
    std::vector<ScenarioSpec> specs;
    std::set<std::string> apps;
    for (std::uint32_t n : tenant_grid) {
        for (double churn : churn_grid) {
            specs.push_back(ScenarioSpec::poisson(n, churn, churn_seed));
            for (const ResolvedTenant &t : specs.back().resolve())
                apps.insert(t.app.name);
        }
    }
    for (const std::string &app : apps)
        specs.push_back(ScenarioSpec::solo(app));
    return {policyConfigs(suffix), specs, scale};
}

/** Add one row per churn cell of @p grid to @p table. */
void
addRows(TextTable &table, const ResultStore &store, const Grid &grid)
{
    for (const NamedConfig &nc : grid.configs) {
        for (const ScenarioSpec &spec : grid.specs) {
            if (!spec.dynamicArrivals())
                continue;
            const RunMetrics *m = store.get(nc.name, spec.label());
            double slow_sum = 0;
            double slow_max = 0;
            std::uint64_t p99_max = 0;
            for (const TenantMetrics &t : m->tenants) {
                const RunMetrics *solo = store.get(nc.name, t.app);
                barre_assert(solo && solo->runtime > 0,
                             "no solo reference for %s/%s",
                             nc.name.c_str(), t.app.c_str());
                const double slow = static_cast<double>(t.runtime()) /
                                    static_cast<double>(solo->runtime);
                slow_sum += slow;
                slow_max = std::max(slow_max, slow);
                p99_max = std::max(p99_max, t.lat_p99);
            }
            const double slow_mean =
                m->tenants.empty()
                    ? 0
                    : slow_sum / static_cast<double>(m->tenants.size());
            table.addRow({nc.name, std::to_string(spec.churn_tenants),
                          fmt(spec.churn_rate, 2),
                          std::to_string(m->runtime), fmt(slow_mean, 3),
                          fmt(slow_max, 3), std::to_string(p99_max)});
        }
    }
}

} // namespace

Figure
a04Tenants(double scale)
{
    const Grid main = churnGrid("", {16, 64}, {0.5, 2.0}, 0.1 * scale);
    const Grid smoke = churnGrid("-smoke", {8}, {2.0}, 0.02 * scale);
    auto print = [main, smoke](const ResultStore &store) {
        TextTable table({"config", "tenants", "churn", "runtime",
                         "slow-mean", "slow-max", "p99-max"});
        addRows(table, store, main);
        addRows(table, store, smoke);
        table.print("A04: multi-tenant churn (slowdown vs solo, tail "
                    "latency)");
    };
    return {"a04_tenants", {main, smoke}, print};
}

} // namespace barre::bench
