/**
 * @file
 * Multi-tenant churn benchmark: the scenario engine under load, one
 * row per (policy config, tenant count, churn rate) cell.
 *
 * Each cell runs a seeded-Poisson churn scenario (fixed seed, so every
 * cell is reproducible) through the F-Barre flagship config plus the
 * ASID-aware policy variants:
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
 * translation latency. The largest cell of every config additionally
 * runs twice — serial (sim_domains=1) and partitioned
 * (chiplets+1 domains) — and the bench exits non-zero unless the two
 * are bitwise identical (metrics row, per-tenant rows, per-tag firing
 * digests).
 *
 *   build/bench/bench_tenants           # full grid
 *   build/bench/bench_tenants --smoke   # small grid
 *
 * $BARRE_SCALE scales the workload; $BARRE_JOBS caps harness workers
 * for the solo-reference runs.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "harness/csv.hh"
#include "harness/pool.hh"
#include "harness/system.hh"
#include "workloads/suite.hh"

using namespace barre;
using namespace barre::bench;

namespace
{

constexpr std::uint64_t churn_seed = 7;

struct RunOut
{
    RunMetrics m;
    std::string csv;
    std::vector<std::string> tenant_rows;
    std::vector<std::uint64_t> digests;
};

RunOut
runOne(SystemConfig cfg, const ScenarioSpec &spec, std::uint32_t domains,
       std::uint32_t threads, double scale)
{
    cfg.workload_scale = scale;
    cfg.sim_domains = domains;
    cfg.sim_threads = threads;

    System sys(std::move(cfg));
    sys.loadScenario(spec);

    RunOut out;
    out.m = sys.run();
    out.m.app = spec.label();
    out.csv = csvRow(out.m);
    for (const TenantMetrics &t : out.m.tenants)
        out.tenant_rows.push_back(tenantCsvRow(t));
    out.digests = sys.eventQueue().fireDigests();
    return out;
}

/** The ASID-aware policy columns this bench compares. */
std::vector<NamedConfig>
benchConfigs()
{
    std::vector<NamedConfig> out;
    out.push_back({"fbarre", SystemConfig::fbarreCfg(2)});

    SystemConfig part = SystemConfig::fbarreCfg(2);
    // 16 ways per set carved into 4 static per-tenant slices.
    part.chiplet.l2_tlb.asid_partitions = 4;
    out.push_back({"fbarre+tlb_part", part});

    SystemConfig fair = SystemConfig::fbarreCfg(2);
    fair.iommu.fair_pw_sched = true;
    out.push_back({"fbarre+fair_pw", fair});
    return out;
}

/** One tenant's row with its interference cost attached. */
struct TenantOut
{
    TenantMetrics t;
    double slowdown = 0; ///< runtime / solo runtime, same config
};

struct Cell
{
    std::string config;
    std::uint32_t tenants = 0;
    double churn = 0;
    RunOut part;                  ///< the partitioned (default) run
    std::vector<TenantOut> rows;  ///< pid order
    bool checked_identity = false;
    bool identical = false;

    double
    slowdownMean() const
    {
        if (rows.empty())
            return 0;
        double s = 0;
        for (const TenantOut &r : rows)
            s += r.slowdown;
        return s / static_cast<double>(rows.size());
    }
    double
    slowdownMax() const
    {
        double s = 0;
        for (const TenantOut &r : rows)
            s = std::max(s, r.slowdown);
        return s;
    }
    std::uint64_t
    p99Max() const
    {
        std::uint64_t v = 0;
        for (const TenantOut &r : rows)
            v = std::max(v, r.t.lat_p99);
        return v;
    }
};

/**
 * Solo-reference runtimes per (config, app) — the denominator of the
 * slowdown column. Computed once per config over the union of apps the
 * deterministic schedules actually draw, via runMany so the reference
 * sweep uses the host cores.
 */
std::map<std::string, Tick>
soloRuntimes(const NamedConfig &nc, const std::set<std::string> &apps,
             double scale)
{
    std::vector<ScenarioSpec> specs;
    for (const std::string &name : apps)
        specs.push_back(ScenarioSpec::solo(name));
    NamedConfig scaled = nc;
    scaled.cfg.workload_scale = scale;
    const auto ms = runMany({scaled}, specs);
    std::map<std::string, Tick> out;
    std::size_t i = 0;
    for (const std::string &name : apps)
        out[name] = ms[i++].runtime;
    return out;
}

} // namespace

static int
tenantsMain(int argc, char **argv)
{
    const bool smoke = argc == 2 && std::strcmp(argv[1], "--smoke") == 0;
    if (argc > 1 && !smoke) {
        std::fprintf(stderr, "usage: %s [--smoke]\n", argv[0]);
        return 2;
    }

    const double scale = smoke ? 0.02 : envScale(0.1);
    const std::vector<std::uint32_t> tenant_grid =
        smoke ? std::vector<std::uint32_t>{8}
              : std::vector<std::uint32_t>{16, 64};
    const std::vector<double> churn_grid =
        smoke ? std::vector<double>{2.0} : std::vector<double>{0.5, 2.0};
    // The identity proof runs on each config's hardest cell.
    const std::uint32_t flagship_tenants = tenant_grid.back();
    const double flagship_churn = churn_grid.back();

    std::vector<Cell> cells;
    bool all_identical = true;
    for (const NamedConfig &nc : benchConfigs()) {
        const std::uint32_t domains = nc.cfg.chiplets + 1;
        const std::uint32_t threads = std::min<std::uint32_t>(
            defaultWorkers(), domains);

        // Union of apps the deterministic schedules draw -> solo refs.
        std::set<std::string> apps;
        for (std::uint32_t n : tenant_grid)
            for (double churn : churn_grid)
                for (const ResolvedTenant &t :
                     ScenarioSpec::poisson(n, churn, churn_seed)
                         .resolve())
                    apps.insert(t.app.name);
        const auto solo = soloRuntimes(nc, apps, scale);

        for (std::uint32_t n : tenant_grid) {
            for (double churn : churn_grid) {
                const ScenarioSpec spec =
                    ScenarioSpec::poisson(n, churn, churn_seed);
                std::fprintf(stderr,
                             "tenants bench: %s, %u tenants, churn "
                             "%.2g, scale %.3g%s\n",
                             nc.name.c_str(), n, churn, scale,
                             smoke ? " (smoke)" : "");

                Cell c;
                c.config = nc.name;
                c.tenants = n;
                c.churn = churn;
                c.part = runOne(nc.cfg, spec, domains, threads, scale);

                if (n == flagship_tenants && churn == flagship_churn) {
                    const RunOut serial =
                        runOne(nc.cfg, spec, 1, 1, scale);
                    c.checked_identity = true;
                    c.identical =
                        serial.csv == c.part.csv &&
                        serial.tenant_rows == c.part.tenant_rows &&
                        serial.digests == c.part.digests;
                    if (!c.identical) {
                        all_identical = false;
                        std::fprintf(stderr,
                                     "ERROR: %s %u-tenant churn run "
                                     "differs between serial and "
                                     "partitioned!\n",
                                     nc.name.c_str(), n);
                    }
                }

                for (const TenantMetrics &t : c.part.m.tenants) {
                    TenantOut r;
                    r.t = t;
                    const auto it = solo.find(t.app);
                    if (it != solo.end() && it->second > 0)
                        r.slowdown =
                            static_cast<double>(t.runtime()) /
                            static_cast<double>(it->second);
                    c.rows.push_back(std::move(r));
                }
                cells.push_back(std::move(c));
            }
        }
    }

    TextTable table({"config", "tenants", "churn", "runtime",
                     "slow-mean", "slow-max", "p99-max", "identity"});
    for (const Cell &c : cells) {
        table.addRow({c.config, std::to_string(c.tenants),
                      fmt(c.churn, 2),
                      std::to_string(c.part.m.runtime),
                      fmt(c.slowdownMean(), 3), fmt(c.slowdownMax(), 3),
                      std::to_string(c.p99Max()),
                      !c.checked_identity ? "-"
                      : c.identical       ? "bitwise"
                                          : "BROKEN"});
    }
    table.print("Multi-tenant churn (slowdown vs solo, tail latency)");
    return all_identical ? 0 : 1;
}

int
main(int argc, char **argv)
{
    return runMain(tenantsMain, argc, argv);
}
