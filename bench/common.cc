#include "bench/common.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "harness/sweep_io.hh"
#include "sim/logging.hh"

namespace barre::bench
{

double
envScale(double def)
{
    const char *s = std::getenv("BARRE_SCALE");
    if (!s || !*s)
        return def;
    // Strict: BARRE_SCALE=x must not silently run at the default
    // scale and masquerade as a scaled measurement.
    return parseScaleArg(s, "BARRE_SCALE");
}

namespace
{

/** Index of @p v in @p pool, appending it first if absent. */
template <typename T>
std::size_t
intern(std::vector<T> &pool, const T &v)
{
    const std::size_t i = std::find(pool.begin(), pool.end(), v) -
                          pool.begin();
    if (i == pool.size())
        pool.push_back(v);
    return i;
}

/** One row per label, one column per series, plus a geomean row. */
void
printColumns(const std::string &title, std::vector<std::string> headers,
             const std::vector<std::string> &rows,
             const std::vector<std::vector<double>> &cols)
{
    TextTable table(std::move(headers));
    for (std::size_t i = 0; i < rows.size(); ++i) {
        std::vector<std::string> row{rows[i]};
        for (const auto &col : cols)
            row.push_back(fmt(col[i]));
        table.addRow(std::move(row));
    }
    std::vector<std::string> gm{"geomean"};
    for (const auto &col : cols)
        gm.push_back(fmt(geomean(col)));
    table.addRow(std::move(gm));
    table.print(title);
}

std::string
keyOf(const std::string &cfg, const std::string &app)
{
    return cfg + "/" + app;
}

} // namespace

void
ResultStore::put(const std::string &cfg, const std::string &app,
                 const RunMetrics &m)
{
    cells_[keyOf(cfg, app)] = m;
}

const RunMetrics *
ResultStore::get(const std::string &cfg, const std::string &app) const
{
    auto it = cells_.find(keyOf(cfg, app));
    return it == cells_.end() ? nullptr : &it->second;
}

std::vector<double>
ResultStore::speedups(const std::string &base, const std::string &cfg,
                      const std::vector<ScenarioSpec> &specs) const
{
    std::vector<double> out;
    for (const auto &spec : specs) {
        const std::string label = spec.label();
        const RunMetrics *b = get(base, label);
        const RunMetrics *c = get(cfg, label);
        barre_assert(b && c, "missing cell %s/%s", cfg.c_str(),
                     label.c_str());
        out.push_back(static_cast<double>(b->runtime) /
                      static_cast<double>(c->runtime));
    }
    return out;
}

void
ResultStore::printSpeedupTable(const std::string &title,
                               const std::string &base,
                               const std::vector<std::string> &configs,
                               const std::vector<ScenarioSpec> &specs)
    const
{
    std::vector<std::string> headers{"app"}, rows;
    std::vector<std::vector<double>> cols;
    for (const auto &c : configs) {
        headers.push_back(c);
        cols.push_back(speedups(base, c, specs));
    }
    for (const auto &spec : specs)
        rows.push_back(spec.label());
    printColumns(title + " (speedup over " + base + ")",
                 std::move(headers), rows, cols);
}

void
ResultStore::printPairTable(const std::string &title,
                            std::vector<std::string> headers,
                            const std::vector<std::string> &tags,
                            const std::vector<AppParams> &apps,
                            const std::string &suffix) const
{
    std::vector<std::string> rows;
    std::vector<ScenarioSpec> specs;
    for (const auto &app : apps) {
        rows.push_back(app.name);
        specs.push_back(ScenarioSpec::solo(app.name + suffix));
    }
    std::vector<std::vector<double>> cols;
    for (const auto &tag : tags)
        cols.push_back(speedups("base-" + tag + suffix,
                                "fbarre-" + tag + suffix, specs));
    printColumns(title, std::move(headers), rows, cols);
}

void
runFigures(const std::vector<Figure> &figs)
{
    // Each distinct config, scenario and cell once; a config keeps the
    // name it was first used under.
    std::vector<SystemConfig> cfg_values;
    std::vector<NamedConfig> cfgs;
    std::vector<ScenarioSpec> specs;
    std::vector<CellRef> cells;
    // Per figure: the (config name, cell) of every cell it reads.
    std::vector<std::vector<std::pair<std::string, std::size_t>>> uses(
        figs.size());
    for (std::size_t f = 0; f < figs.size(); ++f) {
        for (const Grid &grid : figs[f].grids) {
            for (const NamedConfig &nc : grid.configs) {
                SystemConfig cfg = nc.cfg;
                cfg.workload_scale *= grid.scale;
                const std::size_t c = intern(cfg_values, cfg);
                if (c == cfgs.size())
                    cfgs.push_back({nc.name, cfg});
                for (const ScenarioSpec &spec : grid.specs)
                    uses[f].emplace_back(
                        nc.name,
                        intern(cells, CellRef{c, intern(specs, spec)}));
            }
        }
    }

    const std::vector<RunMetrics> results = runMany(cfgs, specs, cells);
    for (const RunMetrics &m : results)
        std::fprintf(stderr, "%-18s %-8s %14llu cycles\n",
                     m.config.c_str(), m.app.c_str(),
                     (unsigned long long)m.runtime);

    for (std::size_t f = 0; f < figs.size(); ++f) {
        ResultStore store;
        for (const auto &[config, cell] : uses[f])
            store.put(config, results[cell].app, results[cell]);
        figs[f].print(store);
    }
}

} // namespace barre::bench
