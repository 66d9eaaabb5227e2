/**
 * @file
 * The repo benchmark (README.md in this directory has the rationale).
 *
 *   barre_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                   [--smoke] [--git-sha SHA] [--src-digest HEX]
 *                   [--out-dir DIR]
 *
 * Workloads: fig15_high_mpki (paper-figure cells through runManyJobs),
 * tenant_churn (Poisson tenant churn, tagged serial) and partitioned_cov
 * (cov cells split over chiplets + 1 event domains). One run repeats
 * the workload for S seconds after a warm-up repetition and reports
 * medians of host times scaled to a reference host speed (calib.hh).
 * --trace 0 prints the end-to-end metrics; --trace 1 alternates
 * span-recording and untraced repetitions, runs reference cells at
 * other engine/scheduler settings and prints the per-layer metrics.
 * The last stdout line is the result
 * object {"correct", "attempted", "failed", "metrics"}; the exit status
 * is 1 when any correctness check failed, 2 on bad arguments.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "calib.hh"
#include "cells.hh"
#include "harness/csv.hh"
#include "harness/experiment.hh"
#include "sim/logging.hh"
#include "spans.hh"
#include "workloads/suite.hh"

using namespace barre;
using namespace perfbench;

namespace
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool smoke = false;
    std::string git_sha = "unknown";
    std::string src_digest = "unknown";
    std::string out_dir = ".bench_out";
};

/**
 * Host seconds of set-up samples taken after each timed rep (at least
 * one pass of the workload's cells).
 */
constexpr double kSetupBudgetS = 0.25;

unsigned
hostCores()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0.0;
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/**
 * Register Table-I app @p name with its access-pattern seed derived
 * from the benchmark seed, so a claim made on one seed can be re-checked
 * on another. @return the registered name: @p name itself, or
 * "name#v" for the v-th of several variants run side by side.
 */
std::string
registerSeeded(const std::string &name, std::uint64_t seed,
               int variant = -1)
{
    AppParams app = appByName(name);
    std::uint64_t z = seed * 64 + static_cast<std::uint64_t>(variant + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull; // splitmix64 finalizer
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    app.seed ^= z ^ (z >> 31);
    if (variant >= 0)
        app.name += "#" + std::to_string(variant);
    registerScenarioApp(app);
    return app.name;
}

/** The Table-I name behind a registered variant name. */
std::string
tableName(const std::string &name)
{
    return name.substr(0, name.find('#'));
}

/**
 * The churn scenario: poisson:N:2:7 — its tenant mix and arrival ticks —
 * with every tenant's access pattern re-seeded from @p seed, as for the
 * static cells. Letting the seed pick the Poisson draw instead changes
 * the mix, and with it the host work, several-fold between seeds.
 */
ScenarioSpec
churnSpec(std::uint32_t tenants, std::uint64_t seed)
{
    ScenarioSpec spec;
    for (const ResolvedTenant &t :
         ScenarioSpec::poisson(tenants, 2.0, 7).resolve()) {
        registerSeeded(t.app.name, seed);
        spec.tenants.push_back(TenantSpec{t.app.name, t.scale, t.arrival});
    }
    return spec;
}

SystemConfigHandle
frozen(SystemConfig cfg, double scale)
{
    cfg.workload_scale = scale;
    return freezeConfig(std::move(cfg));
}

/** What one repetition of a workload runs. */
struct Plan
{
    std::string name;
    std::vector<Cell> cells;
    /** Run the cells through runManyJobs with this many workers. */
    bool pooled = false;
    unsigned jobs = 1;
    /** Event-domain worker threads each cell uses. */
    unsigned sim_threads = 1;
    /** Per cell: replay its driver calls on a standalone GpuDriver. */
    std::vector<bool> replay;
    /**
     * Per cell: counts toward the iommu group and mpki_error (on
     * fig15_high_mpki only the baseline half does).
     */
    std::vector<bool> iommu_cell;
    /** Tenants each dynamic cell must retire (0: static cells). */
    std::size_t tenants = 0;
};

Plan
makePlan(const Options &o, unsigned cores)
{
    // Pool workers are capped one below the core count: with every core
    // busy, other load on the host moved the multi-threaded workloads'
    // medians more from run to run (IQR/median over five seeds on a
    // 4-core host: 0.17-0.20 at 4 threads, 0.06-0.14 at 3). Event-domain
    // threads wait for each other, so one of them losing its core stalls
    // them all; they are capped at half the cores (scaled wall_s over
    // five seeds on that host: 0.36 at 3 threads, 0.045 at 2).
    const unsigned threads = std::max(1u, cores - 1);
    const unsigned coupled = std::max(1u, cores / 2);
    Plan p;
    p.name = o.workload;
    if (o.workload == "fig15_high_mpki") {
        const std::vector<std::string> apps{"matr", "gups", "bicg", "gesm"};
        for (const auto &a : apps)
            registerSeeded(a, o.seed);
        const double scale = o.smoke ? 0.02 : 1.0;
        SystemConfig base = SystemConfig::baselineAts();
        SystemConfig fb = SystemConfig::fbarreCfg(2);
        base.validate_translations = true;
        fb.validate_translations = true;
        const std::vector<std::pair<std::string, SystemConfigHandle>> cfgs{
            {"baseline", frozen(base, scale)}, {"fbarre", frozen(fb, scale)}};
        for (const auto &[name, cfg] : cfgs) {
            for (const auto &a : apps) {
                p.cells.push_back({name, cfg, ScenarioSpec::solo(a)});
                p.replay.push_back(name == "fbarre");
                p.iommu_cell.push_back(name == "baseline");
            }
        }
        p.pooled = true;
        p.jobs = std::min<unsigned>(threads, p.cells.size());
    } else if (o.workload == "tenant_churn") {
        // Scale 0.05: at 0.1 the tenants' overlap tips the MSHRs into
        // the retry herd, whose event count swings by 40% between seeds.
        SystemConfig fb = SystemConfig::fbarreCfg(2);
        fb.sim_domains = 1;
        fb.sim_threads = 1;
        p.tenants = o.smoke ? 4 : 16;
        p.cells.push_back({"fbarre", frozen(fb, o.smoke ? 0.02 : 0.05),
                           churnSpec(p.tenants, o.seed)});
        p.replay.push_back(true);
        p.iommu_cell.push_back(true);
    } else if (o.workload == "partitioned_cov") {
        // Four input variants at scale 4: larger cov cells tip the
        // L2 TLB MSHRs into the retry herd, whose cost swings with the
        // seed; this workload is meant to stay clear of it.
        SystemConfig fb = SystemConfig::fbarreCfg(2);
        fb.sim_domains = fb.chiplets + 1;
        fb.sim_threads = std::min(coupled, fb.sim_domains);
        fb.sim_async = true;
        p.sim_threads = fb.sim_threads;
        const SystemConfigHandle cfg = frozen(fb, o.smoke ? 0.5 : 4.0);
        for (int v = 0; v < 4; ++v) {
            p.cells.push_back({"fbarre", cfg,
                               ScenarioSpec::solo(
                                   registerSeeded("cov", o.seed, v))});
            p.replay.push_back(true);
            p.iommu_cell.push_back(true);
        }
    }
    return p;
}

/** Summed System::run host seconds of @p cells. */
double
totalRun(const std::vector<CellResult> &cells)
{
    double run = 0;
    for (const CellResult &c : cells)
        run += c.run_s;
    return run;
}

/** One timed repetition of a plan. */
struct Rep
{
    bool traced = false;
    std::int64_t first_cell = 0;
    std::vector<CellResult> cells;
    bool replayed = false;             ///< driver calls replayed
    std::vector<ReplayResult> replays; ///< per cell
    double wall_s = 0;                 ///< the timed body, host s
    /**
     * Host-speed factor (calib.hh): kReferenceCalibS over the mean of
     * the calibration kernel's times right before and right after the
     * rep. 0 for the warm-up rep, which is not calibrated.
     */
    double scale = 0;

    double scaledWall() const { return wall_s * scale; }

    /** Simulated accesses per scaled second of System::run. */
    double
    accessesPerSec() const
    {
        double acc = 0;
        for (const auto &c : cells)
            acc += static_cast<double>(c.m.accesses);
        return ratio(acc, totalRun(cells) * scale);
    }

    std::int64_t endCell() const { return first_cell + cells.size(); }
};

/** The host-speed factor between two calibrations (see Rep::scale). */
double
speedScale(double calib_before, double calib_after)
{
    return ratio(kReferenceCalibS, 0.5 * (calib_before + calib_after));
}

std::vector<std::int64_t>
newCells(SpanRecorder &rec, std::size_t n)
{
    std::vector<std::int64_t> ids;
    for (std::size_t i = 0; i < n; ++i)
        ids.push_back(rec.newCell());
    return ids;
}

Rep
runRep(const Plan &plan, SpanRecorder &rec, bool replay)
{
    Rep rep;
    rep.traced = rec.recording();
    const std::vector<std::int64_t> ids = newCells(rec, plan.cells.size());
    rep.first_cell = ids.front();
    rep.cells.resize(plan.cells.size());
    rep.replays.resize(plan.cells.size());

    SpanRecorder::Scope body(rec, plan.pooled ? "harness" : "perfbench",
                             plan.pooled ? "runManyJobs" : "cells", -1, -1,
                             plan.name);
    if (plan.pooled) {
        std::vector<std::function<RunMetrics()>> thunks;
        for (std::size_t i = 0; i < plan.cells.size(); ++i) {
            thunks.push_back([&, i, parent = body.id()] {
                rep.cells[i] = runCell(plan.cells[i], rec, ids[i], parent);
                return rep.cells[i].m;
            });
        }
        runManyJobs(thunks, plan.jobs);
    } else {
        for (std::size_t i = 0; i < plan.cells.size(); ++i)
            rep.cells[i] = runCell(plan.cells[i], rec, ids[i]);
    }
    rep.wall_s = body.stop();

    rep.replayed = replay;
    for (std::size_t i = 0; i < plan.cells.size(); ++i) {
        if (replay && plan.replay[i] && rep.cells[i].ok) {
            rep.replays[i] = replayDriver(*plan.cells[i].cfg,
                                          rep.cells[i].driver_ops, rec,
                                          ids[i]);
        }
    }
    return rep;
}

/**
 * Set-up samples: construct + load every cell of @p plan, one after
 * another, and append the summed seconds of that pass to @p out; repeat
 * until kSetupBudgetS seconds are spent (at least one pass).
 * @return false if a cell failed.
 */
bool
setupSamples(const Plan &plan, SpanRecorder &rec, std::vector<double> &out)
{
    const Clock::time_point t0 = Clock::now();
    do {
        double pass = 0;
        for (const Cell &cell : plan.cells) {
            const double s = setupCell(cell, rec, rec.newCell());
            if (s < 0)
                return false;
            pass += s;
        }
        out.push_back(pass);
    } while (std::chrono::duration<double>(Clock::now() - t0).count() <
             kSetupBudgetS);
    return true;
}

/** Correctness bookkeeping: every cell run counts as one attempt. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    cell(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
        }
    }
};

/** Identity of a partitioned cell with its tagged serial reference. */
bool
sameAsReference(const CellResult &c, CellResult ref)
{
    ref.m.config = c.m.config; // the csv row names the variant
    return c.ok && ref.ok && csvRow(c.m) == csvRow(ref.m) &&
           c.digests == ref.digests && !c.digests.empty();
}

/**
 * Check one repetition: no panic, driver replay reproduces the run,
 * tenants all retired, partitioned cells identical to their tagged
 * serial runs (@p serial, when given), and results identical to the
 * first repetition (same seed, same inputs).
 */
void
checkRep(const Plan &plan, const Rep &rep, const Rep &first,
         const std::vector<CellResult> &serial, Checks &chk)
{
    for (std::size_t i = 0; i < rep.cells.size(); ++i) {
        const CellResult &c = rep.cells[i];
        const std::string label = plan.cells[i].label();
        std::string why;
        if (!c.ok) {
            why = c.error;
        } else if (rep.replayed && plan.replay[i] &&
                   (!rep.replays[i].ok ||
                    rep.replays[i].mapped_pages != c.m.mapped_pages ||
                    rep.replays[i].coalesced_pages != c.m.coalesced_pages ||
                    rep.replays[i].fallback_pages != c.fallback_pages)) {
            const ReplayResult &rp = rep.replays[i];
            why = rp.ok ? csprintf("driver replay mapped/coalesced/fallback "
                                   "%llu/%llu/%llu pages, run %llu/%llu/%llu",
                                   (unsigned long long)rp.mapped_pages,
                                   (unsigned long long)rp.coalesced_pages,
                                   (unsigned long long)rp.fallback_pages,
                                   (unsigned long long)c.m.mapped_pages,
                                   (unsigned long long)c.m.coalesced_pages,
                                   (unsigned long long)c.fallback_pages)
                        : "driver replay: " + rp.error;
        } else if (plan.tenants &&
                   (c.m.tenants.size() != plan.tenants ||
                    std::any_of(c.m.tenants.begin(), c.m.tenants.end(),
                                [](const TenantMetrics &t) {
                                    return t.retired == 0;
                                }))) {
            why = "not every tenant retired";
        } else if (!serial.empty() && !sameAsReference(c, serial[i])) {
            why = "partitioned run differs from the tagged serial run";
        } else if (&rep != &first && first.cells[i].ok &&
                   (!(c.m == first.cells[i].m) ||
                    c.digests != first.cells[i].digests)) {
            why = "results differ between repetitions of one seed";
        }
        chk.cell(why.empty(), label + (why.empty() ? "" : ": " + why));
    }
}

/** A reference cell: the same scenario under another engine setting. */
CellResult
runReference(const Cell &cell, SpanRecorder &rec)
{
    SpanRecorder::Scope s(rec, "perfbench", "reference", -1, -1,
                          cell.label());
    return runCell(cell, rec, rec.newCell());
}

Cell
variant(const Cell &cell, const std::string &tag,
        const std::function<void(SystemConfig &)> &edit)
{
    SystemConfig cfg = *cell.cfg;
    edit(cfg);
    return Cell{cell.config + "@" + tag, freezeConfig(std::move(cfg)),
                cell.spec};
}

double
nsPerEvent(const std::vector<CellResult> &cells)
{
    double events = 0;
    for (const CellResult &c : cells)
        events += static_cast<double>(c.m.sim_events);
    return ratio(totalRun(cells) * 1e9, events);
}

/** The model's error against Table I: |ln(model MPKI / paper MPKI)|. */
double
mpkiError(const Plan &plan, const Rep &rep)
{
    std::vector<double> errs;
    for (std::size_t i = 0; i < rep.cells.size(); ++i) {
        const RunMetrics &m = rep.cells[i].m;
        if (!rep.cells[i].ok || !plan.iommu_cell[i])
            continue;
        double paper = 0;
        if (m.tenants.empty()) {
            paper =
                appByName(tableName(plan.cells[i].spec.tenants.at(0).app))
                    .paper_mpki;
        } else {
            // A tenant mix: the instruction-weighted Table-I MPKI.
            double instr = 0, misses = 0;
            for (const TenantMetrics &t : m.tenants) {
                const AppParams &app = appByName(tableName(t.app));
                const double n = t.accesses * app.instr_per_access;
                instr += n;
                misses += app.paper_mpki * n;
            }
            paper = ratio(misses, instr);
        }
        if (m.l2_mpki > 0 && paper > 0)
            errs.push_back(std::fabs(std::log(m.l2_mpki / paper)));
    }
    double sum = 0;
    for (double e : errs)
        sum += e;
    return ratio(sum, static_cast<double>(errs.size()));
}

/** An ordered name -> (value, unit) list, printed as JSON. */
struct Metrics
{
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        items;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        items.push_back({name, {std::isfinite(value) ? value : 0.0, unit}});
    }

    std::string
    json() const
    {
        std::ostringstream os;
        os << "{";
        for (std::size_t i = 0; i < items.size(); ++i) {
            os << (i ? ", " : "") << "\"" << items[i].first
               << "\": {\"value\": "
               << csprintf("%.17g", items[i].second.first)
               << ", \"unit\": \"" << items[i].second.second << "\"}";
        }
        os << "}";
        return os.str();
    }
};

/** Per-layer metrics of the traced run. */
Metrics
layerMetrics(const Plan &plan, const std::vector<Rep> &reps,
             const SpanRecorder &rec,
             const std::map<std::string, double> &sched)
{
    // Rep 0 is the untraced warm-up; neither median includes it.
    const Rep &r0 = reps.front();
    std::vector<const Rep *> traced, untraced;
    for (std::size_t i = 1; i < reps.size(); ++i)
        (reps[i].traced ? traced : untraced).push_back(&reps[i]);

    // Scaled host seconds from the recorded spans, median over the
    // traced reps.
    auto spanMedian = [&](const std::string &name) {
        std::vector<double> v;
        for (const Rep *r : traced)
            v.push_back(rec.sum(name, r->first_cell, r->endCell()) *
                        r->scale);
        return median(v);
    };
    auto wallMedian = [](const std::vector<const Rep *> &rs) {
        std::vector<double> v;
        for (const Rep *r : rs)
            v.push_back(r->scaledWall());
        return median(v);
    };
    std::vector<double> calibs;
    for (std::size_t i = 1; i < reps.size(); ++i)
        calibs.push_back(ratio(kReferenceCalibS, reps[i].scale));

    // Counters are deterministic: take them from the first rep.
    double accesses = 0, events = 0, l2_acc = 0, l2_miss = 0, retries = 0;
    double local = 0, remote = 0, noc = 0, up = 0, down = 0, cycles = 0;
    double mapped = 0, coalesced = 0, fallback = 0, replay_mapped = 0;
    double ats = 0, walks = 0, pec = 0, proc = 0, depth = 0;
    double calc = 0, probes = 0, rhits = 0, fallbacks = 0, updates = 0;
    double lcf_pos = 0, lcf_true = 0, fb_ats = 0;
    double retired = 0, p99 = 0;
    for (std::size_t i = 0; i < r0.cells.size(); ++i) {
        const CellResult &c = r0.cells[i];
        const RunMetrics &m = c.m;
        accesses += m.accesses;
        events += m.sim_events;
        l2_acc += c.l2_accesses;
        l2_miss += m.l2_tlb_misses;
        retries += m.mshr_retries;
        local += m.local_data;
        remote += m.remote_data;
        noc += m.noc_bytes;
        up += m.pcie_up_bytes;
        down += m.pcie_down_bytes;
        cycles += m.runtime;
        mapped += m.mapped_pages;
        coalesced += m.coalesced_pages;
        fallback += c.fallback_pages;
        if (r0.replays[i].ok)
            replay_mapped += r0.replays[i].mapped_pages;
        if (plan.iommu_cell[i]) {
            ats += m.ats_packets;
            walks += m.walks;
            pec += m.iommu_coalesced;
            proc += m.avg_ats_time * m.ats_packets;
            depth += m.avg_pw_queue_depth * m.ats_packets;
        }
        if (plan.cells[i].cfg->mode == TranslationMode::fbarre) {
            calc += m.local_calc_hits;
            probes += m.remote_probes;
            rhits += m.remote_hits;
            fallbacks += m.fbarre_fallbacks;
            updates += m.filter_updates;
            lcf_pos += m.lcf_positives;
            lcf_true += m.lcf_true_positives;
            fb_ats += m.ats_packets;
        }
        for (const TenantMetrics &t : m.tenants) {
            retired += t.retired > 0;
            p99 = std::max(p99, static_cast<double>(t.lat_p99));
        }
    }

    // F-Barre's speedup over the baseline half (fig15 only).
    double fbarre_speedup = 0;
    if (plan.name == "fig15_high_mpki") {
        std::vector<double> sp;
        const std::size_t half = r0.cells.size() / 2;
        for (std::size_t i = 0; i < half; ++i) {
            sp.push_back(ratio(r0.cells[i].m.runtime,
                               r0.cells[i + half].m.runtime));
        }
        fbarre_speedup = geomean(sp);
    }

    const double batch = wallMedian(traced);
    const double busy = plan.pooled ? spanMedian("cell") : 0;
    const double run_s = spanMedian("System::run");
    const double alloc_s = spanMedian("GpuDriver::gpuMalloc");
    const double untraced_wall = wallMedian(untraced);

    auto schedGet = [&](const std::string &k) {
        auto it = sched.find(k);
        return it == sched.end() ? 0.0 : it->second;
    };

    Metrics out;
    out.add("harness.construct_s", spanMedian("System::System"), "s");
    out.add("harness.pool.busy_s", busy, "s");
    out.add("harness.pool.idle_frac",
            plan.pooled ? 1.0 - ratio(busy, plan.jobs * batch) : 0.0,
            "frac");
    out.add("harness.scheduler.serial_run_s", schedGet("serial_run_s"),
            "s");
    out.add("harness.scheduler.speedup", schedGet("speedup"), "x");
    out.add("harness.scheduler.efficiency", schedGet("efficiency"), "x");
    out.add("harness.scheduler.async_over_epoch",
            schedGet("async_over_epoch"), "x");
    out.add("workloads.load_s", spanMedian("System::loadScenario"), "s");
    out.add("workloads.tenants_retired", retired, "count");
    out.add("workloads.lat_p99_max_cycles", p99, "cycles");
    out.add("driver.alloc_s", alloc_s, "s");
    out.add("driver.exit_s", spanMedian("GpuDriver::processExit"), "s");
    out.add("driver.us_per_mapped_page", ratio(alloc_s * 1e6, replay_mapped),
            "us/page");
    out.add("driver.mapped_pages", mapped, "count");
    out.add("driver.coalesced_pages", coalesced, "count");
    out.add("driver.fallback_pages", fallback, "count");
    out.add("sim.run_s", run_s, "s");
    out.add("sim.events", events, "count");
    out.add("sim.events_per_access", ratio(events, accesses), "1/access");
    out.add("sim.ns_per_event", ratio(run_s * 1e9, events), "ns");
    out.add("sim.tagged_over_legacy", schedGet("tagged_over_legacy"), "x");
    out.add("gpu.l2tlb.accesses", l2_acc, "count");
    out.add("gpu.l2tlb.misses", l2_miss, "count");
    out.add("gpu.l2tlb.mshr_retries", retries, "count");
    out.add("gpu.l2tlb.retries_per_miss", ratio(retries, l2_miss), "1/miss");
    out.add("gpu.data.remote_frac", ratio(remote, local + remote), "frac");
    out.add("iommu.ats_requests", ats, "count");
    out.add("iommu.walks", walks, "count");
    out.add("iommu.pec_calculated", pec, "count");
    out.add("iommu.avg_processing_cycles", ratio(proc, ats), "cycles");
    out.add("iommu.avg_pw_queue_depth", ratio(depth, ats), "requests");
    out.add("core.local_calc_hits", calc, "count");
    out.add("core.remote_probes", probes, "count");
    out.add("core.remote_hits", rhits, "count");
    out.add("core.fallbacks", fallbacks, "count");
    out.add("core.filter_updates", updates, "count");
    out.add("core.lcf_precision", ratio(lcf_true, lcf_pos), "frac");
    out.add("core.intra_mcm_fraction",
            ratio(calc + rhits, calc + rhits + fb_ats), "frac");
    out.add("noc.bytes", noc, "B");
    out.add("pcie.up_bytes", up, "B");
    out.add("pcie.down_bytes", down, "B");
    out.add("model.sim_cycles", cycles, "cycles");
    out.add("model.fbarre_speedup", fbarre_speedup, "x");
    out.add("trace.overhead_frac",
            ratio(batch - untraced_wall, untraced_wall), "frac");
    out.add("host.calib_s", median(calibs), "s");
    return out;
}

/** Whole-string unsigned / positive-real parses; garbage throws. */
std::uint64_t
parseU64(const std::string &v)
{
    std::size_t end = 0;
    const std::uint64_t x = std::stoull(v, &end);
    if (end != v.size() || v.front() == '-')
        throw std::invalid_argument("not an unsigned integer: " + v);
    return x;
}

double
parsePositive(const std::string &v)
{
    std::size_t end = 0;
    const double x = std::stod(v, &end);
    if (end != v.size() || !(x > 0) || !std::isfinite(x))
        throw std::invalid_argument("not a positive number: " + v);
    return x;
}

void
parseArgs(int argc, char **argv, Options &o)
{
    bool have_workload = false, have_seed = false;
    bool have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(a + " needs a value");
            return argv[++i];
        };
        if (a == "--workload") {
            o.workload = value();
            have_workload = true;
        } else if (a == "--seed") {
            o.seed = parseU64(value());
            have_seed = true;
        } else if (a == "--seconds") {
            o.seconds = parsePositive(value());
            have_seconds = true;
        } else if (a == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1")
                throw std::invalid_argument("--trace takes 0 or 1");
            o.trace = v == "1";
            have_trace = true;
        } else if (a == "--smoke") {
            o.smoke = true;
        } else if (a == "--git-sha") {
            o.git_sha = value();
        } else if (a == "--src-digest") {
            o.src_digest = value();
        } else if (a == "--out-dir") {
            o.out_dir = value();
        } else {
            throw std::invalid_argument("unknown argument " + a);
        }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace)
        throw std::invalid_argument(
            "need --workload, --seed, --seconds and --trace");
    if (o.workload != "fig15_high_mpki" && o.workload != "tenant_churn" &&
        o.workload != "partitioned_cov")
        throw std::invalid_argument("unknown workload " + o.workload);
}

std::string
provenanceJson(const Options &o, const Plan &plan, unsigned cores)
{
    std::ostringstream os;
    os << "{\"workload\": \"" << o.workload << "\", \"seed\": " << o.seed
       << ", \"seconds\": " << o.seconds << ", \"trace\": " << o.trace
       << ", \"smoke\": " << o.smoke << ", \"host_cores\": " << cores
       << ", \"workers\": " << plan.jobs
       << ", \"sim_threads\": " << plan.sim_threads
       << ", \"compiler\": \"" << __VERSION__ << "\""
       << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\""
       << ", \"git_sha\": \"" << o.git_sha << "\""
       << ", \"src_digest\": \"" << o.src_digest << "\"}";
    return os.str();
}

int
runBenchmark(const Options &o)
{
    const unsigned cores = hostCores();
    const Plan plan = makePlan(o, cores);
    SpanRecorder rec(false);
    Checks chk;
    standardSuite();

    auto taggedSerial = [](SystemConfig &c) {
        c.sim_domains = 1;
        c.sim_threads = 1;
    };
    auto legacy = [](SystemConfig &c) { c.sim_domains = 0; };
    auto references = [&](const std::vector<Cell> &cells,
                          const std::string &tag,
                          const std::function<void(SystemConfig &)> &edit) {
        std::vector<CellResult> out;
        for (const Cell &cell : cells) {
            out.push_back(runReference(variant(cell, tag, edit), rec));
            chk.cell(out.back().ok, "reference " + tag + " " +
                                        cell.label() + ": " +
                                        out.back().error);
        }
        return out;
    };

    // Partitioned cells must equal their tagged serial runs; those run
    // first, untimed.
    std::vector<CellResult> serial;
    if (plan.name == "partitioned_cov")
        serial = references(plan.cells, "serial", taggedSerial);

    // The repetitions. Rep 0 is a warm-up (first heap growth, first pool
    // start-up): every later rep must reproduce it, the peak RSS is read
    // after it, before the calibration kernel allocates its tables, and
    // no median includes it. Each later rep is bracketed by calibration
    // runs on as many threads as it uses (calib.hh). Untraced, each rep
    // is followed by set-up samples, cells one at a time (inside a
    // pooled rep, concurrent set-ups are twice as noisy) and bracketed
    // by one-thread calibration runs; spread over the run, a short burst
    // of other load cannot move them all. Traced, the reps alternate
    // recording and untraced, so both medians come from the same
    // conditions. The driver replay runs after rep 0 and every traced
    // rep.
    const unsigned width = plan.pooled ? plan.jobs : plan.sim_threads;
    // A pool balances its cells over the workers, so its speed follows
    // the mean worker; event domains wait for each other, so the
    // slowest thread sets theirs.
    auto calibS = [&plan](unsigned threads) {
        const CalibTime c = calibrate(threads);
        return plan.pooled ? c.mean_s : c.max_s;
    };
    const std::chrono::duration<double> budget(o.seconds);
    const Clock::time_point t0 = Clock::now();
    std::vector<Rep> reps{runRep(plan, rec, true)};
    checkRep(plan, reps.front(), reps.front(), serial, chk);
    const double rss = peakRssMb();
    std::vector<double> setups, setup_scales; // raw s, host-speed factor
    double calib = calibS(width);
    Clock::duration last{};
    do {
        const Clock::time_point t = Clock::now();
        rec.setRecording(o.trace && reps.size() % 2 == 1);
        reps.push_back(runRep(plan, rec, rec.recording()));
        rec.setRecording(false);
        const double after = calibS(width);
        reps.back().scale = speedScale(calib, after);
        calib = after;
        checkRep(plan, reps.back(), reps.front(), serial, chk);
        if (!o.trace) {
            const double before = width == 1 ? calib : calibS(1);
            chk.cell(setupSamples(plan, rec, setups),
                     plan.name + " set-up sample");
            const double done = calibS(1);
            setup_scales.resize(setups.size(), speedScale(before, done));
            calib = width == 1 ? done : calibS(width);
        }
        last = Clock::now() - t;
    } while (Clock::now() - t0 + last <= budget ||
             (o.trace && reps.size() < 3));

    // The traced run's reference cells: the same inputs on the other
    // event engine (sim_domains 1 vs 0) and, partitioned, under the
    // async and the epoch scheduler. The variants take turns for three
    // rounds and each ratio is the median of its per-round values, so
    // host load that drifts during the run cancels out of the ratios.
    rec.setRecording(o.trace);
    std::map<std::string, double> sched;
    if (o.trace) {
        using Edit = std::function<void(SystemConfig &)>;
        const bool part = plan.name == "partitioned_cov";
        // fig15_high_mpki: one F-Barre cell, run alone.
        const std::vector<Cell> cells =
            plan.pooled ? std::vector<Cell>{plan.cells[plan.cells.size() / 2]}
                        : plan.cells;
        std::vector<std::pair<std::string, Edit>> variants{
            {"tagged", taggedSerial}, {"legacy", legacy}};
        if (part) {
            variants.push_back({"async", [](SystemConfig &) {}});
            variants.push_back(
                {"epoch", [](SystemConfig &c) { c.sim_async = false; }});
        }
        std::map<std::string, std::vector<double>> rounds;
        double round_calib = calibS(1);
        for (int round = 0; round < 3; ++round) {
            std::map<std::string, std::vector<CellResult>> got;
            for (const auto &[tag, edit] : variants)
                got[tag] = references(cells, tag, edit);
            const double after = calibS(1);
            const auto &tagged = got["tagged"];
            rounds["serial_run_s"].push_back(
                totalRun(tagged) * speedScale(round_calib, after));
            round_calib = after;
            rounds["tagged_over_legacy"].push_back(
                ratio(nsPerEvent(tagged), nsPerEvent(got["legacy"])));
            if (!part)
                continue;
            const double async_s = totalRun(got["async"]);
            const double speedup = ratio(totalRun(tagged), async_s);
            rounds["speedup"].push_back(speedup);
            rounds["efficiency"].push_back(ratio(speedup, plan.sim_threads));
            rounds["async_over_epoch"].push_back(
                ratio(totalRun(got["epoch"]), async_s));
            for (std::size_t i = 0; i < cells.size(); ++i) {
                chk.cell(sameAsReference(got["epoch"][i], serial[i]),
                         "epoch run identical to the tagged serial one");
            }
        }
        for (const auto &[name, values] : rounds)
            sched[name] = median(values);
    }
    rec.setRecording(false);

    Metrics metrics;
    if (o.trace) {
        metrics = layerMetrics(plan, reps, rec, sched);
    } else {
        std::vector<double> walls, aps, scaled_setups;
        for (std::size_t i = 1; i < reps.size(); ++i) {
            walls.push_back(reps[i].scaledWall());
            aps.push_back(reps[i].accessesPerSec());
        }
        for (std::size_t i = 0; i < setups.size(); ++i)
            scaled_setups.push_back(setups[i] * setup_scales[i]);
        metrics.add("wall_s", median(walls), "s");
        metrics.add("setup_s", median(scaled_setups), "s");
        metrics.add("accesses_per_s", median(aps), "1/s");
        metrics.add("peak_rss_mb", rss, "MB");
        metrics.add("pass_frac",
                    1.0 - ratio(static_cast<double>(chk.failed),
                                static_cast<double>(chk.attempted)),
                    "frac");
        metrics.add("mpki_error", mpkiError(plan, reps.front()), "ln");
    }

    // The provenance and every rep's raw numbers go to a per-run record
    // under --out-dir; stdout ends with the result object.
    const std::string prov = provenanceJson(o, plan, cores);
    const std::string stem = o.out_dir + "/" + o.workload + "_seed" +
                             std::to_string(o.seed) + "_trace" +
                             (o.trace ? "1" : "0");
    std::error_code ec;
    std::filesystem::create_directories(o.out_dir, ec);
    {
        std::ofstream os(stem + ".json");
        os << "{\"provenance\": " << prov << ",\n \"reps\": [";
        for (std::size_t i = 0; i < reps.size(); ++i) {
            os << (i ? ", " : "") << "{\"traced\": " << reps[i].traced
               << ", \"wall_s\": " << csprintf("%.9g", reps[i].wall_s)
               << ", \"scale\": " << csprintf("%.9g", reps[i].scale)
               << ", \"accesses_per_s\": "
               << csprintf("%.9g", reps[i].accessesPerSec()) << "}";
        }
        os << "],\n \"setup_samples\": [";
        for (std::size_t i = 0; i < setups.size(); ++i) {
            os << (i ? ", " : "") << "{\"wall_s\": "
               << csprintf("%.9g", setups[i]) << ", \"scale\": "
               << csprintf("%.9g", setup_scales[i]) << "}";
        }
        os << "],\n \"metrics\": " << metrics.json() << "}\n";
    }
    if (o.trace && !rec.writeChromeTrace(stem + ".trace.json"))
        std::fprintf(stderr, "perfbench: cannot write %s.trace.json\n",
                     stem.c_str());

    std::printf("{\"provenance\": %s}\n", prov.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                chk.failed == 0 ? "true" : "false",
                (unsigned long long)chk.attempted,
                (unsigned long long)chk.failed, metrics.json().c_str());
    std::fflush(stdout);
    return chk.failed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    try {
        parseArgs(argc, argv, o);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "barre_perfbench: %s\n", e.what());
        return 2;
    }
    return runBenchmark(o);
}
