/**
 * @file
 * sweep - run (configuration x application) grids and emit CSV.
 *
 *   sweep --modes baseline,fbarre --apps atax,matr,gups --out grid.csv
 *   sweep --modes baseline,barre,fbarre --scale 0.25
 *   sweep --jobs 8            # explicit worker count (default: all
 *                             # cores, or $BARRE_JOBS; 1 = serial)
 *   sweep --shard 0/4 --out shard0.csv
 *                             # run every 4th cell (cluster sharding);
 *                             # reassemble with tools/merge_csv
 *
 * Cells run in parallel via runMany(); output rows and CSV bytes are
 * identical regardless of the worker count. With --shard i/N the
 * process runs only its slice of the cell grid and prefixes the CSV
 * with a manifest (shard id, grid signature, cell count) so
 * merge_csv can validate and reassemble the full grid byte-identical
 * to an unsharded run.
 *
 * Intended for plotting and for regression-diffing whole result grids.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/csv.hh"
#include "harness/experiment.hh"
#include "harness/sweep_io.hh"

using namespace barre;

namespace
{

std::vector<std::string>
split(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string tok;
    while (std::getline(ss, tok, ','))
        if (!tok.empty())
            out.push_back(tok);
    return out;
}

SystemConfig
configFor(const std::string &mode)
{
    if (mode == "baseline")
        return SystemConfig::baselineAts();
    if (mode == "valkyrie")
        return SystemConfig::valkyrieCfg();
    if (mode == "least")
        return SystemConfig::leastCfg();
    if (mode == "barre")
        return SystemConfig::barreCfg();
    if (mode == "fbarre")
        return SystemConfig::fbarreCfg(2);
    if (mode == "fbarre4")
        return SystemConfig::fbarreCfg(4);
    barre_fatal("unknown mode '%s'", mode.c_str());
}

std::string
join(const std::vector<std::string> &xs)
{
    std::string out;
    for (const auto &x : xs)
        out += (out.empty() ? "" : ",") + x;
    return out;
}

} // namespace

static int
sweepMain(int argc, char **argv)
{
    std::vector<std::string> modes{"baseline", "fbarre"};
    std::vector<std::string> apps;
    std::string out_file;
    double scale = 1.0;
    unsigned jobs = 0; // 0 = $BARRE_JOBS / hardware concurrency
    bool sharded = false;
    ShardSpec shard;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                barre_fatal("%s needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--modes") {
            modes = split(next());
        } else if (arg == "--apps") {
            apps = split(next());
        } else if (arg == "--out") {
            out_file = next();
        } else if (arg == "--scale") {
            scale = parseScaleArg(next(), "--scale");
        } else if (arg == "--jobs") {
            jobs = parseUnsignedArg(next(), "--jobs");
        } else if (arg == "--shard") {
            shard = parseShardArg(next());
            sharded = true;
        } else {
            std::fprintf(stderr,
                         "usage: sweep [--modes a,b] [--apps x,y] "
                         "[--scale F] [--jobs N] [--shard I/N] "
                         "[--out FILE]\n");
            return arg == "--help" || arg == "-h" ? 0 : 1;
        }
    }

    if (apps.empty())
        for (const auto &a : standardSuite())
            apps.push_back(a.name);

    std::vector<NamedConfig> cfgs;
    for (const auto &mode : modes) {
        SystemConfig cfg = configFor(mode);
        cfg.workload_scale = scale;
        cfgs.push_back({mode, cfg});
    }
    std::vector<ScenarioSpec> specs;
    for (const auto &name : apps) {
        scenarioApp(name); // unknown names die here, not mid-sweep
        specs.push_back(ScenarioSpec::solo(name));
    }

    // The whole config-major grid, or with --shard i/N its slice.
    const std::size_t total = cfgs.size() * specs.size();
    const std::vector<std::size_t> cells = shardCells(total, shard);
    std::vector<CellRef> refs;
    for (std::size_t cell : cells)
        refs.push_back({cell / specs.size(), cell % specs.size()});
    const std::vector<RunMetrics> rows = runMany(cfgs, specs, refs, jobs);

    ShardFile sf;
    sf.shard = shard;
    sf.grid = "modes=" + join(modes) + ";apps=" + join(apps) +
              ";scale=" + csprintf("%g", scale);
    sf.total_cells = total;
    sf.header = csvHeader();
    for (std::size_t k = 0; k < rows.size(); ++k) {
        const RunMetrics &r = rows[k];
        if (sharded)
            std::fprintf(stderr, "[%zu/%zu] ", cells[k], total);
        std::fprintf(stderr, "%-9s %-6s %12llu cycles\n",
                     r.config.c_str(), r.app.c_str(),
                     (unsigned long long)r.runtime);
        sf.rows.push_back(csvRow(r));
    }

    std::ofstream file;
    if (!out_file.empty()) {
        file.open(out_file);
        if (!file)
            barre_fatal("cannot write %s", out_file.c_str());
    }
    std::ostream &os = out_file.empty() ? std::cout : file;
    if (sharded)
        writeShardCsv(os, sf);
    else
        writeCsv(os, rows);
    if (out_file.empty())
        return 0;
    if (sharded)
        std::printf("wrote shard %u/%u (%zu of %zu cells) to %s\n",
                    shard.index, shard.count, sf.rows.size(), total,
                    out_file.c_str());
    else
        std::printf("wrote %zu rows to %s\n", rows.size(),
                    out_file.c_str());
    return 0;
}

int
main(int argc, char **argv)
{
    return runMain(sweepMain, argc, argv);
}
