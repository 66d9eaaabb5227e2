#include "harness/experiment.hh"

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "harness/pool.hh"
#include "sim/logging.hh"

namespace barre
{

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
        jobs = defaultWorkers();

    std::vector<RunMetrics> results(sims.size());
    if (jobs == 1 || sims.size() <= 1) {
        // Serial reference path ($BARRE_JOBS=1): no threads, no log
        // buffering — output appears as each cell runs, in argument
        // order.
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

    // Start order only — results are still collected by argument
    // index: longest-expected-first with hints, else last index first.
    std::vector<std::size_t> order(sims.size());
    if (cost_hints.empty()) {
        std::iota(order.rbegin(), order.rend(), std::size_t{0});
    } else {
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                             return cost_hints[a] > cost_hints[b];
                         });
    }
    try {
        parallelFor(jobs, order, cell);
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
cellCostHint(const SystemConfig &cfg, const ScenarioSpec &spec)
{
    double hint = 0.0;
    for (const ResolvedTenant &t : spec.resolve())
        hint += cellCostHint(t.app) * t.scale;
    return hint * cfg.workload_scale;
}

std::vector<RunMetrics>
runMany(const std::vector<NamedConfig> &cfgs,
        const std::vector<ScenarioSpec> &specs,
        const std::vector<CellRef> &cells, unsigned jobs)
{
    // One frozen handle per config, as given; all of its cells share
    // it.
    std::vector<SystemConfigHandle> frozen;
    frozen.reserve(cfgs.size());
    for (const auto &nc : cfgs)
        frozen.push_back(freezeConfig(nc.cfg));

    std::vector<std::function<RunMetrics()>> sims;
    std::vector<double> hints;
    sims.reserve(cells.size());
    hints.reserve(cells.size());
    for (const CellRef &cell : cells) {
        const NamedConfig &nc = cfgs.at(cell.config);
        const ScenarioSpec &spec = specs.at(cell.spec);
        sims.push_back([cfg = frozen[cell.config], &nc, &spec] {
            RunMetrics m = runScenario(cfg, spec);
            m.config = nc.name;
            return m;
        });
        hints.push_back(cellCostHint(nc.cfg, spec));
    }
    return runManyJobs(sims, hints, jobs);
}

std::vector<RunMetrics>
runMany(const std::vector<NamedConfig> &cfgs,
        const std::vector<ScenarioSpec> &specs, unsigned jobs)
{
    std::vector<CellRef> cells;
    cells.reserve(cfgs.size() * specs.size());
    for (std::size_t c = 0; c < cfgs.size(); ++c)
        for (std::size_t s = 0; s < specs.size(); ++s)
            cells.push_back({c, s});
    return runMany(cfgs, specs, cells, jobs);
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
