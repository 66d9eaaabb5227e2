/**
 * @file
 * Shared infrastructure for the benchmark harness.
 *
 * Each Figure reproduces one figure/table of the paper: it names the
 * (configuration, application) cells it reads and prints the
 * paper-shaped series (applications as rows, configurations as
 * columns, geometric-mean summary row) next to the paper's reported
 * numbers. runFigures() runs the union of the requested figures' cells
 * once, fanned out over host cores ($BARRE_JOBS caps the workers),
 * and then prints each figure.
 */

#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "harness/experiment.hh"

namespace barre::bench
{

/** Workload scale factor from $BARRE_SCALE (e.g. 0.1 for a quick pass). */
double envScale(double def = 1.0);

/** Collected metrics for every (config, app) cell. */
class ResultStore
{
  public:
    void put(const std::string &cfg, const std::string &app,
             const RunMetrics &m);
    const RunMetrics *get(const std::string &cfg,
                          const std::string &app) const;

    /**
     * Print the classic evaluation table: one row per scenario with
     * the speedup of each config over @p base, plus a geomean row.
     */
    void printSpeedupTable(const std::string &title,
                           const std::string &base,
                           const std::vector<std::string> &configs,
                           const std::vector<ScenarioSpec> &specs) const;

    /**
     * Print F-Barre's speedup over the baseline per setting: column k
     * is config "fbarre-" + tags[k] + suffix over "base-" + tags[k] +
     * suffix, one row per app (stored as app + suffix), plus a geomean
     * row. @p headers name the app column and then each setting.
     */
    void printPairTable(const std::string &title,
                        std::vector<std::string> headers,
                        const std::vector<std::string> &tags,
                        const std::vector<AppParams> &apps,
                        const std::string &suffix = "") const;

  private:
    /** runtime(base)/runtime(cfg) per scenario, in @p specs order. */
    std::vector<double> speedups(const std::string &base,
                                 const std::string &cfg,
                                 const std::vector<ScenarioSpec> &specs)
        const;

    std::map<std::string, RunMetrics> cells_;
};

/** The (config x scenario) cells one figure reads, at one scale. */
struct Grid
{
    std::vector<NamedConfig> configs;
    std::vector<ScenarioSpec> specs;
    double scale = 1.0; ///< multiplies every config's workload_scale
};

/**
 * One paper figure or table: a name, the grids it reads, and a printer
 * over a ResultStore that holds exactly those cells under the grids'
 * own config names. Print-only entries have no grids.
 */
struct Figure
{
    std::string name;
    std::vector<Grid> grids;
    std::function<void(const ResultStore &)> print;
};

/**
 * Run the union of @p figs' cells in one runMany() batch — each cell
 * once, de-duplicated by (SystemConfig, ScenarioSpec) value — then
 * print the figures in order. Per-cell progress lines go to stderr, one
 * per unique cell in first-use order, after the batch finishes, so
 * stdout is byte-identical regardless of the worker count.
 */
void runFigures(const std::vector<Figure> &figs);

/// @name The figures, one source file each (bench/<name>.cc)
/// Each takes the $BARRE_SCALE workload scale.
/// @{
Figure a04Tenants(double scale);
Figure ablDemandPaging(double scale);
Figure ablMulticast(double scale);
Figure ablWalkModel(double scale);
Figure fig01PtwScaling(double scale);
Figure fig02SuperpageMigration(double scale);
Figure fig04Mshr(double scale);
Figure fig05VpnGap(double scale);
Figure fig06SharedL2tlb(double scale);
Figure fig15Overall(double scale);
Figure fig16Ats(double scale);
Figure fig17aFilterHits(double scale);
Figure fig17bFilterSize(double scale);
Figure fig18Breakdown(double scale);
Figure fig19SharingTraffic(double scale);
Figure fig20Chiplets(double scale);
Figure fig21Gmmu(double scale);
Figure fig22Migration(double scale);
Figure fig23PtwSweep(double scale);
Figure fig24PageSize(double scale);
Figure fig25VsSuperpage(double scale);
Figure fig26Mappings(double scale);
Figure fig27aMultiapp(double scale);
Figure fig27bIommuTlb(double scale);
Figure sec7kOverhead(double scale);
Figure tab1Mpki(double scale);
Figure tab2Params(double scale);
/// @}

} // namespace barre::bench

