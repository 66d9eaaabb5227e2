/**
 * @file
 * One simulation cell, run from outside the simulator: construct a
 * System, load a scenario, run it, harvest its counters, and replay the
 * driver calls it made on a standalone GpuDriver. Every call into a
 * layer is bracketed by a span (spans.hh).
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/config.hh"
#include "harness/metrics.hh"
#include "spans.hh"
#include "workloads/scenario.hh"

namespace perfbench
{

/** A named configuration running one scenario. */
struct Cell
{
    std::string config; ///< "baseline", "fbarre", ...
    barre::SystemConfigHandle cfg;
    barre::ScenarioSpec spec;

    std::string label() const { return config + "/" + spec.label(); }
};

/** One driver call a run made, in simulated order. */
struct DriverOp
{
    bool exit = false; ///< processExit(pid) rather than gpuMalloc
    barre::ProcessId pid = 0;
    std::uint64_t pages = 0;
    barre::DataTraits traits{};
};

struct CellResult
{
    bool ok = false;
    std::string error; ///< the panic/fatal message when !ok

    barre::RunMetrics m;
    double run_s = 0; ///< host seconds of System::run

    /// @name Counters RunMetrics does not carry
    /// @{
    std::uint64_t l2_accesses = 0;
    std::uint64_t fallback_pages = 0;
    /** Tagged-engine firing digests (empty on the legacy queue). */
    std::vector<std::uint64_t> digests;
    /// @}

    /** The driver calls the run made, for replayDriver(). */
    std::vector<DriverOp> driver_ops;
};

/**
 * Construct, load and run @p cell under span cell id @p cell_id.
 * Never throws: a panic or fatal inside the simulator marks the result
 * failed.
 */
CellResult runCell(const Cell &cell, SpanRecorder &rec,
                   std::int64_t cell_id, std::int64_t parent = -1);

/**
 * Construct and load @p cell without running it (extra set-up
 * samples). @return construct + load seconds, or -1 on failure.
 */
double setupCell(const Cell &cell, SpanRecorder &rec,
                 std::int64_t cell_id, std::int64_t parent = -1);

struct ReplayResult
{
    bool ok = false;
    std::string error;
    double alloc_s = 0; ///< summed GpuDriver::gpuMalloc time
    double exit_s = 0;  ///< summed GpuDriver::processExit time
    std::uint64_t allocs = 0;
    std::uint64_t exits = 0;
    std::uint64_t mapped_pages = 0;
    std::uint64_t coalesced_pages = 0;
    std::uint64_t fallback_pages = 0;
};

/**
 * Replay @p ops on a standalone GpuDriver over a MemoryMap of the same
 * geometry as @p cfg's, timing each call. Spans carry @p cell_id, the
 * id of the cell whose calls are replayed.
 */
ReplayResult replayDriver(const barre::SystemConfig &cfg,
                          const std::vector<DriverOp> &ops,
                          SpanRecorder &rec, std::int64_t cell_id,
                          std::int64_t parent = -1);

} // namespace perfbench
