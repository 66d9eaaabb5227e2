/**
 * @file
 * One-call experiment helpers and plain-text table output used by the
 * benchmark harness (bench/figures) and tools/sweep.
 *
 * runMany() is the sweep workhorse: it fans independent simulations out
 * across host cores (harness/pool.hh parallelFor(), $BARRE_JOBS threads
 * spawned per call) while keeping results bitwise identical to the
 * serial loop — every simulation owns its EventQueue/Rng/StatRegistry,
 * and results are collected by index, never by completion order.
 */

#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "harness/metrics.hh"
#include "harness/system.hh"
#include "workloads/suite.hh"

namespace barre
{

/**
 * Build a system, run one scenario, return its metrics
 * (RunMetrics::app = spec.label()). The historic single-app and
 * multi-programmed runs are ScenarioSpec::solo(name) and
 * ::pair(a, b); dynamic specs run the churn engine.
 */
RunMetrics runScenario(const SystemConfig &cfg,
                       const ScenarioSpec &spec);

/**
 * Same, from a frozen config handle. runMany() uses this to build every
 * cell of a column from one shared immutable SystemConfig instead of a
 * per-cell copy.
 */
RunMetrics runScenario(const SystemConfigHandle &cfg,
                       const ScenarioSpec &spec);

/** One column of an experiment: a named system configuration. */
struct NamedConfig
{
    std::string name;
    SystemConfig cfg;
};

/** One cell of a flat batch: indices into runMany()'s two lists. */
struct CellRef
{
    std::size_t config;
    std::size_t spec;

    friend bool operator==(const CellRef &, const CellRef &) = default;
};

/**
 * Run an arbitrary list of (config, scenario) cells across @p jobs
 * workers (0 = $BARRE_JOBS, else the CPUs this thread may run on; 1 =
 * plain serial loop, no threads spawned); result k is cell k. Each
 * cell is runScenario() with RunMetrics::config set to the config
 * name, and every cell of one config shares one handle, frozen as
 * given: a partitioned cell runs its config's sim_threads whatever
 * @p jobs is. Results are deterministic and independent of the
 * worker count.
 *
 * Cells start longest-expected-first (cellCostHint()) so a long
 * `gups` cell never tails the batch; results are still collected by
 * cell index, so output is unaffected by the ordering.
 */
std::vector<RunMetrics> runMany(const std::vector<NamedConfig> &cfgs,
                                const std::vector<ScenarioSpec> &specs,
                                const std::vector<CellRef> &cells,
                                unsigned jobs = 0);

/**
 * Grid form: the full (config x scenario) grid, config-major — result
 * index c * specs.size() + s.
 */
std::vector<RunMetrics> runMany(const std::vector<NamedConfig> &cfgs,
                                const std::vector<ScenarioSpec> &specs,
                                unsigned jobs = 0);

/**
 * Generic form: run arbitrary simulation thunks, return their results
 * in argument order. Thunks must be independent (no shared mutable
 * state); each should build and run its own System.
 *
 * In the parallel path thunks start from the last one, and each
 * thunk's warn()/inform() output is buffered per cell and replayed in
 * argument order once the batch finishes (sim/logging.hh LogBlock), so
 * log output is byte-identical to the serial run instead of
 * interleaving across cells.
 */
std::vector<RunMetrics>
runManyJobs(const std::vector<std::function<RunMetrics()>> &sims,
            unsigned jobs = 0);

/**
 * Like runManyJobs(sims, jobs), but starts thunks in descending
 * @p cost_hints order (longest-expected-first) so expensive cells do
 * not tail the batch. @p cost_hints must be empty (= the unhinted
 * form) or one hint per thunk; any monotone estimate works — only the
 * relative order matters. Results are identical to the unhinted form.
 */
std::vector<RunMetrics>
runManyJobs(const std::vector<std::function<RunMetrics()>> &sims,
            const std::vector<double> &cost_hints, unsigned jobs = 0);

/**
 * Expected relative wall cost of one app run, from its Table I MPKI
 * and access count: high-MPKI apps fire far more walk/IOMMU events
 * per access, so they dominate a batch.
 */
double cellCostHint(const AppParams &app);

/**
 * Cell form, used by runMany() to order cells longest-expected-first:
 * the sum of the scenario's resolved tenants' hints x tenant scale,
 * times the config's workload_scale.
 */
double cellCostHint(const SystemConfig &cfg, const ScenarioSpec &spec);

/**
 * Fixed-width text table, printed in the shape of the paper's figures
 * (apps as rows, configurations as columns).
 */
class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> headers);

    void addRow(std::vector<std::string> cells);
    void addRow(const std::string &label,
                const std::vector<double> &values, int precision = 3);

    /** Render to stdout. */
    void print(const std::string &title = "") const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format helper. */
std::string fmt(double v, int precision = 3);

} // namespace barre

