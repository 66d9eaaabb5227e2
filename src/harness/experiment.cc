#include "harness/experiment.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <numeric>

#include "harness/pool.hh"
#include "harness/sweep_io.hh"
#include "sim/logging.hh"

namespace barre
{

namespace
{

/**
 * Optional persisted cost hints: $BARRE_COST_CACHE names a text file
 * of "config/app<TAB>wall_seconds" lines. runMany() prefers a cell's
 * last measured wall time over the MPKI model and rewrites the file
 * after each sweep, so repeated sweeps converge on true costs. A
 * missing file is an empty cache; a malformed line is fatal.
 */
std::map<std::string, double>
loadCostCache(const char *path)
{
    std::map<std::string, double> cache;
    std::ifstream is(path);
    std::string line;
    for (std::size_t lineno = 1; std::getline(is, line); ++lineno) {
        const std::string where = csprintf("%s:%zu", path, lineno);
        const std::size_t tab = line.find('\t');
        if (tab == std::string::npos || tab == 0)
            barre_fatal("%s: expected 'config/app<TAB>seconds'",
                        where.c_str());
        cache[line.substr(0, tab)] =
            parseScaleArg(line.substr(tab + 1), where.c_str());
    }
    return cache;
}

void
saveCostCache(const char *path,
              const std::map<std::string, double> &cache)
{
    std::ofstream os(path);
    if (!os) {
        barre_warn("cannot write cost cache '%s'", path);
        return;
    }
    for (const auto &[key, secs] : cache)
        os << key << '\t' << secs << '\n';
}

} // namespace

RunMetrics
runScenario(const SystemConfig &cfg, const ScenarioSpec &spec)
{
    return runScenario(freezeConfig(cfg), spec);
}

RunMetrics
runScenario(const SystemConfigHandle &cfg, const ScenarioSpec &spec)
{
    System sys(cfg);
    sys.loadScenario(spec);
    RunMetrics m = sys.run();
    m.app = spec.label();
    return m;
}

std::vector<RunMetrics>
runManyJobs(const std::vector<std::function<RunMetrics()>> &sims,
            unsigned jobs)
{
    return runManyJobs(sims, {}, jobs);
}

std::vector<RunMetrics>
runManyJobs(const std::vector<std::function<RunMetrics()>> &sims,
            const std::vector<double> &cost_hints, unsigned jobs)
{
    barre_assert(cost_hints.empty() ||
                     cost_hints.size() == sims.size(),
                 "runManyJobs: %zu hints for %zu sims",
                 cost_hints.size(), sims.size());
    if (jobs == 0)
        jobs = ThreadPool::defaultWorkers();

    std::vector<RunMetrics> results(sims.size());
    if (jobs == 1 || sims.size() <= 1) {
        // Serial reference path ($BARRE_JOBS=1): no pool, no threads,
        // no log buffering — output appears as each cell runs, in
        // argument order.
        for (std::size_t i = 0; i < sims.size(); ++i)
            results[i] = sims[i]();
        return results;
    }

    // Warm process-wide lazy singletons (the workload suite) before
    // fanning out, so workers never contend on first-use init.
    standardSuite();

    // Each cell's log traffic is captured on its worker and replayed
    // below in argument order, so stdout/stderr match the serial run
    // byte for byte instead of interleaving across cells.
    std::vector<LogBlock> blocks(sims.size());
    auto cell = [&](std::size_t i) {
        beginLogBuffer();
        try {
            results[i] = sims[i]();
        } catch (...) {
            blocks[i] = endLogBuffer();
            throw;
        }
        blocks[i] = endLogBuffer();
    };

    ThreadPool pool(jobs);
    try {
        if (cost_hints.empty()) {
            pool.parallelFor(sims.size(), cell);
        } else {
            // Longest-expected-first: start order only — results are
            // still collected by argument index.
            std::vector<std::size_t> order(sims.size());
            std::iota(order.begin(), order.end(), 0);
            std::stable_sort(order.begin(), order.end(),
                             [&](std::size_t a, std::size_t b) {
                                 return cost_hints[a] > cost_hints[b];
                             });
            pool.parallelForOrdered(order, cell);
        }
    } catch (...) {
        for (const auto &b : blocks)
            replayLog(b);
        throw;
    }
    for (const auto &b : blocks)
        replayLog(b);
    return results;
}

double
cellCostHint(const AppParams &app)
{
    // Wall time scales with simulated events: every access costs a
    // TLB lookup, and every expected L2 TLB miss (paper MPKI x
    // kilo-instructions) fans out into walk/IOMMU/NoC traffic that is
    // roughly an order of magnitude more event work per miss.
    double accesses =
        static_cast<double>(app.ctas) * app.accesses_per_cta;
    double expected_misses =
        app.paper_mpki * app.totalInstructions() / 1000.0;
    return accesses + 8.0 * expected_misses;
}

double
cellCostHint(const ScenarioSpec &spec)
{
    double hint = 0.0;
    for (const ResolvedTenant &t : spec.resolve())
        hint += cellCostHint(t.app) * t.scale;
    return hint;
}

std::vector<RunMetrics>
runMany(const std::vector<NamedConfig> &cfgs,
        const std::vector<ScenarioSpec> &specs, unsigned jobs)
{
    const char *cache_path = std::getenv("BARRE_COST_CACHE");
    std::map<std::string, double> cache;
    if (cache_path)
        cache = loadCostCache(cache_path);

    const std::size_t n = cfgs.size() * specs.size();

    // A sweep with fewer cells than workers leaves cores idle; hand
    // each cell's partitioned scheduler an equal share of the
    // leftovers. The domain scheduler's thread count never affects
    // results (harness/domain_scheduler.hh), only wall time, so the
    // sweep stays bitwise identical to the serial path. Explicit
    // sim_threads requests are left alone.
    const unsigned eff_jobs =
        jobs != 0 ? jobs : ThreadPool::defaultWorkers();
    const unsigned spare_threads =
        n > 0 && eff_jobs > n ? static_cast<unsigned>(eff_jobs / n) : 1;

    std::vector<std::function<RunMetrics()>> sims;
    std::vector<double> hints;
    std::vector<double> walls(n, 0.0);
    sims.reserve(n);
    hints.reserve(n);
    for (const auto &nc : cfgs) {
        // One frozen handle per column; all of its cells share it.
        SystemConfig col_cfg = nc.cfg;
        if (spare_threads > 1 && col_cfg.sim_domains > 0 &&
            col_cfg.sim_threads == 0) {
            col_cfg.sim_threads = spare_threads;
        }
        SystemConfigHandle frozen = freezeConfig(std::move(col_cfg));
        for (const auto &spec : specs) {
            std::size_t i = sims.size();
            bool timed = cache_path != nullptr;
            sims.push_back([frozen, &nc, &spec, &walls, i, timed] {
                auto t0 = std::chrono::steady_clock::now();
                RunMetrics m = runScenario(frozen, spec);
                m.config = nc.name;
                if (timed)
                    walls[i] = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() -
                                   t0)
                                   .count();
                return m;
            });
            auto it = cache.find(nc.name + "/" + spec.label());
            hints.push_back(it != cache.end()
                                ? it->second
                                : cellCostHint(spec));
        }
    }
    std::vector<RunMetrics> results = runManyJobs(sims, hints, jobs);

    if (cache_path) {
        for (std::size_t i = 0; i < n; ++i)
            if (walls[i] > 0)
                cache[results[i].config + "/" + results[i].app] =
                    walls[i];
        saveCostCache(cache_path, cache);
    }
    return results;
}

std::string
fmt(double v, int precision)
{
    return csprintf("%.*f", precision, v);
}

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers))
{}

void
TextTable::addRow(std::vector<std::string> cells)
{
    // A row wider than the header is a caller bug — silently dropping
    // the extra cells once corrupted a printed table. Short rows are
    // legitimately padded (label-only separator rows).
    barre_assert(cells.size() <= headers_.size(),
                 "TextTable row has %zu cells but only %zu headers",
                 cells.size(), headers_.size());
    cells.resize(headers_.size());
    rows_.push_back(std::move(cells));
}

void
TextTable::addRow(const std::string &label,
                  const std::vector<double> &values, int precision)
{
    std::vector<std::string> cells;
    cells.push_back(label);
    for (double v : values)
        cells.push_back(fmt(v, precision));
    addRow(std::move(cells));
}

void
TextTable::print(const std::string &title) const
{
    if (!title.empty())
        std::printf("\n== %s ==\n", title.c_str());

    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t i = 0; i < headers_.size(); ++i)
        widths[i] = headers_[i].size();
    for (const auto &row : rows_)
        for (std::size_t i = 0; i < row.size(); ++i)
            widths[i] = std::max(widths[i], row[i].size());

    auto print_row = [&](const std::vector<std::string> &row) {
        for (std::size_t i = 0; i < row.size(); ++i)
            std::printf("%-*s  ", static_cast<int>(widths[i]),
                        row[i].c_str());
        std::printf("\n");
    };
    print_row(headers_);
    for (const auto &row : rows_)
        print_row(row);
    std::fflush(stdout);
}

} // namespace barre
