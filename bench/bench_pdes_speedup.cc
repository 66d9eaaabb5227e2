/**
 * @file
 * Self-benchmark for partitioned (conservative-PDES) simulation, one
 * row per partitionable configuration — the F-Barre flagship plus
 * every configuration the message-path conversions unblocked
 * (valkyrie, least, shared_l2_tlb, migration, fbarre_oracle). Each row
 * runs the references —
 *
 *   - legacy:       sim_domains=0, the serial global event queue;
 *   - tagged 1-dom: sim_domains=1, the tagged engine on one thread
 *                   (the identity reference for partitioned runs);
 *
 * — and then the partitioned runs: the epoch scheduler over a thread
 * sweep up to min($BARRE_JOBS, domains). Every partitioned run must be
 * bitwise identical to the tagged serial reference (csv metrics row
 * and per-tag firing digests); the bench exits non-zero otherwise.
 * Wall times, simulated events/s, and the speedup ratios land in a
 * schema-versioned BENCH_pdes.json; the flagship row at the top thread
 * count is additionally spliced into the perf-trajectory JSON as its
 * "pdes_speedup" member:
 *
 *   build/bench/bench_pdes_speedup [out.json]  # BENCH_runner.json
 *   build/bench/bench_pdes_speedup --smoke     # small, no file writes
 *
 * $BARRE_SCALE scales the workload; $BARRE_JOBS caps the worker count.
 * host_cores is recorded so trajectory diffs can tell "code got
 * slower" from "CI got smaller".
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
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

double
wallSeconds(const std::function<void()> &fn)
{
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

struct RunOut
{
    double wall = 0;
    std::uint64_t events = 0;
    std::string csv;
    std::vector<std::uint64_t> digests;

    double
    eps() const
    {
        return wall > 0 ? static_cast<double>(events) / wall : 0.0;
    }
};

RunOut
runOne(SystemConfig cfg, std::uint32_t domains, std::uint32_t threads,
       double scale)
{
    cfg.workload_scale = scale;
    cfg.sim_domains = domains;
    cfg.sim_threads = threads;

    System sys(std::move(cfg));
    sys.loadScenario(ScenarioSpec::solo("cov"));

    RunOut out;
    RunMetrics m;
    out.wall = wallSeconds([&] { m = sys.run(); });
    m.app = "cov";
    out.events = m.sim_events;
    out.csv = csvRow(m);
    if (const TaggedEngine *eng = sys.eventQueue().taggedEngine())
        out.digests = eng->fireDigests();
    return out;
}

/** The partitionable configurations this bench sweeps. */
std::vector<NamedConfig>
benchConfigs()
{
    std::vector<NamedConfig> out;
    out.push_back({"fbarre", SystemConfig::fbarreCfg(2)});
    out.push_back({"valkyrie", SystemConfig::valkyrieCfg()});
    out.push_back({"least", SystemConfig::leastCfg()});

    SystemConfig shared = SystemConfig::baselineAts();
    shared.shared_l2_tlb = true;
    out.push_back({"shared_l2_tlb", shared});

    SystemConfig mig = SystemConfig::baselineAts();
    mig.migration.enabled = true;
    mig.migration.threshold = 4;
    mig.driver.policy = MappingPolicyKind::round_robin;
    out.push_back({"migration", mig});

    SystemConfig oracle = SystemConfig::fbarreCfg(2);
    oracle.fbarre.oracle_sharing = true;
    out.push_back({"fbarre_oracle", oracle});
    return out;
}

/** One partitioned cell of the thread sweep. */
struct PartRun
{
    std::uint32_t threads = 1;
    RunOut out;
    bool identical = false;
};

struct Row
{
    std::string name;
    RunOut legacy;
    RunOut serial;
    /** Ascending thread counts; the last is the headline cell. */
    std::vector<PartRun> parts;
};

double
speedup(const RunOut &base, const RunOut &x)
{
    return x.wall > 0 ? base.wall / x.wall : 0.0;
}

/** Splice "pdes_speedup": {...} into @p path (see bench_event_queue). */
bool
mergeJson(const std::string &path, const std::string &member)
{
    std::string existing;
    if (std::FILE *in = std::fopen(path.c_str(), "r")) {
        char buf[4096];
        std::size_t n;
        while ((n = std::fread(buf, 1, sizeof buf, in)) > 0)
            existing.append(buf, n);
        std::fclose(in);
    }
    std::string out;
    const std::size_t brace = existing.rfind('}');
    if (brace != std::string::npos) {
        out = existing.substr(0, brace);
        while (!out.empty() &&
               (out.back() == '\n' || out.back() == ' '))
            out.pop_back();
        const std::size_t prev = out.rfind(",\n  \"pdes_speedup\":");
        if (prev != std::string::npos)
            out.erase(prev);
        out += ",\n  \"pdes_speedup\": " + member + "\n}\n";
    } else {
        out = "{\n  \"schema_version\": 1,\n  \"pdes_speedup\": " +
              member + "\n}\n";
    }
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
    return true;
}

bool
writePdesJson(const std::string &path, const std::vector<Row> &rows,
              unsigned cores, std::uint32_t domains, double scale)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f,
                 "{\n"
                 "  \"schema_version\": 3,\n"
                 "  \"family\": \"pdes\",\n"
                 "  \"host_cores\": %u,\n"
                 "  \"domains\": %u,\n"
                 "  \"workload_scale\": %g,\n"
                 "  \"configs\": [\n",
                 cores, domains, scale);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        std::fprintf(f,
                     "    {\n"
                     "      \"name\": \"%s\",\n"
                     "      \"legacy_wall_s\": %.6f,\n"
                     "      \"tagged_serial_wall_s\": %.6f,\n"
                     "      \"legacy_events_per_s\": %.0f,\n"
                     "      \"tagged_serial_events_per_s\": %.0f,\n"
                     "      \"runs\": [\n",
                     r.name.c_str(), r.legacy.wall, r.serial.wall,
                     r.legacy.eps(), r.serial.eps());
        for (std::size_t j = 0; j < r.parts.size(); ++j) {
            const PartRun &p = r.parts[j];
            std::fprintf(
                f,
                "        {\"scheduler\": \"epoch\", \"threads\": %u, "
                "\"wall_s\": %.6f, \"events_per_s\": %.0f, "
                "\"speedup_vs_tagged_serial\": %.3f, "
                "\"speedup_vs_legacy\": %.3f, "
                "\"identical_results\": %s}%s\n",
                p.threads, p.out.wall,
                p.out.eps(), speedup(r.serial, p.out),
                speedup(r.legacy, p.out),
                p.identical ? "true" : "false",
                j + 1 < r.parts.size() ? "," : "");
        }
        std::fprintf(f, "      ]\n    }%s\n",
                     i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string out_path = "BENCH_runner.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else
            out_path = argv[i];
    }

    const double scale = smoke ? 0.02 : envScale(0.4);
    const unsigned cores = std::thread::hardware_concurrency();

    std::vector<Row> rows;
    bool all_identical = true;
    std::uint32_t domains = 0;
    for (const NamedConfig &nc : benchConfigs()) {
        domains = nc.cfg.chiplets + 1;
        const std::uint32_t top = std::min<std::uint32_t>(
            ThreadPool::defaultWorkers(), domains);
        // Thread sweep: 1, 2, top (deduplicated, ascending). Smoke
        // keeps only the endpoints — it gates identity, not speed.
        std::vector<std::uint32_t> sweep{1};
        if (!smoke && top > 2)
            sweep.push_back(2);
        if (top > 1)
            sweep.push_back(top);

        std::fprintf(stderr,
                     "pdes speedup bench: %s, scale %.3g, %u domains, "
                     "threads up to %u, %u host cores%s\n",
                     nc.name.c_str(), scale, domains, top, cores,
                     smoke ? " (smoke)" : "");

        Row r;
        r.name = nc.name;
        r.legacy = runOne(nc.cfg, 0, 0, scale);
        r.serial = runOne(nc.cfg, 1, 1, scale);
        for (const std::uint32_t threads : sweep) {
            PartRun p;
            p.threads = threads;
            p.out = runOne(nc.cfg, domains, threads, scale);
            p.identical = r.serial.csv == p.out.csv &&
                          r.serial.digests == p.out.digests;
            if (!p.identical) {
                all_identical = false;
                std::fprintf(stderr,
                             "ERROR: %s %u-thread run differs from the "
                             "tagged serial reference!\n",
                             nc.name.c_str(), threads);
            }
            r.parts.push_back(std::move(p));
        }
        rows.push_back(std::move(r));
    }

    TextTable table({"config", "threads", "wall-s", "vs-tagged",
                     "vs-legacy", "identity"});
    for (const Row &r : rows) {
        for (const PartRun &p : r.parts) {
            table.addRow({r.name, std::to_string(p.threads),
                          fmt(p.out.wall, 3),
                          fmt(speedup(r.serial, p.out)),
                          fmt(speedup(r.legacy, p.out)),
                          p.identical ? "bitwise" : "BROKEN"});
        }
    }
    table.print("PDES thread sweep per partitionable config");

    if (!smoke) {
        const Row &flag = rows.front(); // fbarre: the trajectory row
        const PartRun &fp = flag.parts.back();
        char member[704];
        std::snprintf(member, sizeof member,
                      "{\n"
                      "    \"host_cores\": %u,\n"
                      "    \"domains\": %u,\n"
                      "    \"threads\": %u,\n"
                      "    \"workload_scale\": %g,\n"
                      "    \"legacy_wall_s\": %.6f,\n"
                      "    \"tagged_serial_wall_s\": %.6f,\n"
                      "    \"partitioned_wall_s\": %.6f,\n"
                      "    \"legacy_events_per_s\": %.0f,\n"
                      "    \"tagged_serial_events_per_s\": %.0f,\n"
                      "    \"partitioned_events_per_s\": %.0f,\n"
                      "    \"speedup_vs_tagged_serial\": %.3f,\n"
                      "    \"speedup_vs_legacy\": %.3f,\n"
                      "    \"identical_results\": %s\n"
                      "  }",
                      cores, domains, fp.threads, scale,
                      flag.legacy.wall, flag.serial.wall, fp.out.wall,
                      flag.legacy.eps(), flag.serial.eps(),
                      fp.out.eps(), speedup(flag.serial, fp.out),
                      speedup(flag.legacy, fp.out),
                      fp.identical ? "true" : "false");
        if (!mergeJson(out_path, member))
            std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        else
            std::printf("wrote %s\n", out_path.c_str());
        if (!writePdesJson("BENCH_pdes.json", rows, cores, domains,
                           scale))
            std::fprintf(stderr, "cannot write BENCH_pdes.json\n");
        else
            std::printf("wrote BENCH_pdes.json\n");
    }
    return all_identical ? 0 : 1;
}
