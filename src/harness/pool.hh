/**
 * @file
 * Host threads for fanning independent simulations out across cores:
 * two free functions, no persistent pool.
 *
 * runOnThreads() gives each of k cooperating tasks a thread of its own
 * (the epoch scheduler's per-domain loops, which meet at a barrier).
 * parallelFor() runs independent tasks on a few such threads; each free
 * thread takes the next task from one shared start-order cursor.
 * Threads are spawned per call: the work they run lasts milliseconds
 * to minutes, so a spawn (tens of microseconds) never shows. Tasks are
 * plain indices, so callers collect results by index and stay
 * deterministic no matter which thread ran what.
 *
 * This file is the one place that spawns host threads or sizes worker
 * counts (tools/lint.py, rule host-threads).
 */

#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace barre
{

/** Largest worker count defaultWorkers() returns. */
constexpr unsigned kMaxJobs = 1024;

/**
 * Worker count policy: $BARRE_JOBS if set and non-empty, else the
 * number of CPUs this thread may run on (its affinity mask, so a
 * cpuset-restricted container is not oversubscribed), else 1. A
 * malformed, zero, negative or out-of-range $BARRE_JOBS is fatal;
 * values above kMaxJobs clamp to it with a warning.
 */
unsigned defaultWorkers();

/**
 * Run fn(i) for every i in [0, k), each on a thread of its own: the
 * calling thread runs fn(0) and k - 1 threads spawned for this call
 * run the rest, so the tasks may wait on each other. Joins them all,
 * then rethrows the exception of the lowest-indexed task that threw.
 * If a thread cannot be spawned, no task runs: the threads already
 * spawned are joined and the spawn error is rethrown.
 */
void runOnThreads(std::size_t k,
                  const std::function<void(std::size_t)> &fn);

/**
 * Run fn(i) for every i in @p order on min(@p workers, order.size())
 * threads (0 = defaultWorkers()) and block until all returned. Tasks
 * start in @p order: each free thread takes the next one from a
 * shared cursor, so put the expected-longest task first. A task that
 * throws does not stop the rest; once every task has run, the first
 * exception caught on the lowest-numbered thread that caught one is
 * rethrown.
 */
void parallelFor(unsigned workers, const std::vector<std::size_t> &order,
                 const std::function<void(std::size_t)> &fn);

/** parallelFor() over [0, n), started from the highest index. */
void parallelFor(unsigned workers, std::size_t n,
                 const std::function<void(std::size_t)> &fn);

} // namespace barre
