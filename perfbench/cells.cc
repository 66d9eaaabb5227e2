#include "cells.hh"

#include <exception>

#include "harness/system.hh"
#include "mem/memory_map.hh"

namespace perfbench
{

using namespace barre;

namespace
{

std::uint64_t
framesPerChiplet(const SystemConfig &cfg)
{
    return cfg.mem_bytes_per_chiplet >> pageShift(cfg.page_size);
}

/**
 * The driver calls @p sys made, in order. Allocations come from
 * System::allocations() (exact allocation order); a dynamic scenario's
 * teardowns are merged in at each tenant's finish tick, when the engine
 * calls processExit (workloads/scenario_engine.hh). Traits come from
 * the tenant's buffer list, which allocate() walks in order.
 */
std::vector<DriverOp>
driverOps(System &sys, const ScenarioSpec &spec)
{
    struct Tenant
    {
        const AppParams *app = nullptr;
        Tick arrival = 0;
        Tick finish = 0;
    };
    std::vector<Tenant> tenants;
    std::vector<ResolvedTenant> resolved;
    if (const ScenarioEngine *eng = sys.scenarioEngine()) {
        for (const auto &ts : eng->tenantStates())
            tenants.push_back({&ts.app, ts.launched, ts.finished});
    } else {
        resolved = spec.resolve();
        for (const ResolvedTenant &t : resolved)
            tenants.push_back({&t.app, 0, 0});
    }

    std::vector<DriverOp> ops;
    std::vector<std::size_t> next_buffer(tenants.size(), 0);
    std::vector<bool> exited(tenants.size(), false);
    auto exitsUpTo = [&](Tick when) {
        // Teardowns that ran before an arrival at @p when, by finish
        // tick then pid.
        for (;;) {
            std::size_t best = tenants.size();
            for (std::size_t i = 0; i < tenants.size(); ++i) {
                if (exited[i] || tenants[i].finish == 0 ||
                    tenants[i].finish > when)
                    continue;
                if (best == tenants.size() ||
                    tenants[i].finish < tenants[best].finish)
                    best = i;
            }
            if (best == tenants.size())
                return;
            exited[best] = true;
            DriverOp op;
            op.exit = true;
            op.pid = static_cast<ProcessId>(best + 1);
            ops.push_back(op);
        }
    };
    for (const DataAlloc &a : sys.allocations()) {
        const std::size_t t = a.pid - 1;
        if (next_buffer[t] == 0)
            exitsUpTo(tenants[t].arrival);
        DriverOp op;
        op.pid = a.pid;
        op.pages = a.pages;
        op.traits = tenants[t].app->buffers.at(next_buffer[t]++).traits;
        ops.push_back(op);
    }
    exitsUpTo(max_tick);
    return ops;
}

} // namespace

CellResult
runCell(const Cell &cell, SpanRecorder &rec, std::int64_t cell_id,
        std::int64_t parent)
{
    CellResult r;
    SpanRecorder::Scope whole(rec, "harness", "cell", cell_id, parent,
                              cell.label());
    try {
        SpanRecorder::Scope construct(rec, "harness", "System::System",
                                      cell_id);
        System sys(cell.cfg);
        construct.stop();

        SpanRecorder::Scope load(rec, "workloads", "System::loadScenario",
                                 cell_id);
        sys.loadScenario(cell.spec);
        load.stop();

        SpanRecorder::Scope run(rec, "sim", "System::run", cell_id);
        r.m = sys.run();
        r.run_s = run.stop();
        r.m.config = cell.config;
        r.m.app = cell.spec.label();

        // run() has already audited a dynamic scenario for stale
        // ASIDs; a failed audit panics into the catch below.
        for (std::uint32_t c = 0; c < sys.config().chiplets; ++c)
            r.l2_accesses += sys.chiplet(c).l2TlbAccesses();
        r.fallback_pages = sys.driver().fallbackPages();
        if (const TaggedEngine *te = sys.eventQueue().taggedEngine())
            r.digests = te->fireDigests();
        r.driver_ops = driverOps(sys, cell.spec);
        r.ok = true;
    } catch (const std::exception &e) {
        r.ok = false;
        r.error = e.what();
    }
    whole.stop();
    return r;
}

double
setupCell(const Cell &cell, SpanRecorder &rec, std::int64_t cell_id,
          std::int64_t parent)
{
    SpanRecorder::Scope whole(rec, "harness", "setup", cell_id, parent,
                              cell.label());
    try {
        SpanRecorder::Scope construct(rec, "harness", "System::System",
                                      cell_id);
        System sys(cell.cfg);
        double secs = construct.stop();
        SpanRecorder::Scope load(rec, "workloads", "System::loadScenario",
                                 cell_id);
        sys.loadScenario(cell.spec);
        return secs + load.stop();
    } catch (const std::exception &) {
        return -1;
    }
}

ReplayResult
replayDriver(const SystemConfig &cfg, const std::vector<DriverOp> &ops,
             SpanRecorder &rec, std::int64_t cell_id, std::int64_t parent)
{
    ReplayResult r;
    SpanRecorder::Scope whole(rec, "driver", "driver replay", cell_id,
                              parent);
    try {
        MemoryMap map(cfg.chiplets, framesPerChiplet(cfg));
        GpuDriver driver(map, cfg.driver);
        for (const DriverOp &op : ops) {
            if (op.exit) {
                SpanRecorder::Scope s(rec, "driver",
                                      "GpuDriver::processExit", cell_id);
                driver.processExit(op.pid);
                r.exit_s += s.stop();
                ++r.exits;
            } else {
                SpanRecorder::Scope s(rec, "driver", "GpuDriver::gpuMalloc",
                                      cell_id);
                driver.gpuMalloc(op.pid, op.pages, op.traits);
                r.alloc_s += s.stop();
                ++r.allocs;
            }
        }
        r.mapped_pages = driver.totalMappedPages();
        r.coalesced_pages = driver.coalescedPages();
        r.fallback_pages = driver.fallbackPages();
        r.ok = true;
    } catch (const std::exception &e) {
        r.ok = false;
        r.error = e.what();
    }
    return r;
}

} // namespace perfbench
