/**
 * @file
 * Driver for an EventQueue with a partition plan: the lock-step epoch
 * scheduler. A one-domain plan (the serial run) drains in one epoch
 * on the calling thread.
 *
 * Domains advance in epochs [S, S + lookahead): every worker drains the
 * sends staged for its domains in the previous epoch (replaying
 * shared-resource arbitration in key order) and fires their events
 * below the horizon, in parallel; then all workers meet at one barrier,
 * where the last to arrive picks the next epoch start — the earliest
 * pending tick anywhere, staged sends included, so idle stretches cost
 * one epoch, not one per lookahead. The global conservative lookahead
 * (min over cross-domain links of 1 serialization cycle + latency)
 * guarantees staged arrivals always land at or beyond the horizon.
 * Events fire in (when, birth, key) order, so CSVs, stats, and per-tag
 * digests are bitwise identical across any domain count × any thread
 * count.
 *
 * A worker that throws (e.g. a DomainGuard ownership panic), or a
 * last arriver whose epoch step throws, aborts the barrier, so its
 * peers return instead of waiting for it forever, and run() rethrows
 * the first error on the calling thread.
 *
 * Each run spawns its workers for itself (runOnThreads,
 * harness/pool.hh), so every domain worker has a thread of its own;
 * results never depend on how many there are.
 */

#pragma once

#include <cstdint>

#include "sim/domain.hh"

namespace barre
{

class DomainScheduler
{
  public:
    /**
     * Run @p eq to completion.
     *
     * @param eq        an EventQueue with enableTags() applied.
     * @param lookahead global conservative lookahead in ticks (>= 1);
     *                  must not exceed any cross-domain link's minimum
     *                  delivery delay. With no cross-domain link (one
     *                  domain) pass max_tick: the run is one epoch.
     * @param threads   worker threads to use (0 = defaultWorkers());
     *                  clamped to the domain count and to
     *                  defaultWorkers(), since barrier-coupled workers
     *                  must not outnumber the cores.
     * @return events fired during this run; eq.epochs() then counts
     *         the run's epochs.
     */
    static std::uint64_t run(EventQueue &eq, Tick lookahead,
                             unsigned threads);
};

} // namespace barre
