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
 * Worker threads come from a process-wide budget: concurrent
 * partitioned runs (e.g. cells inside runMany) each lease a share of
 * the host's cores instead of one run taking a global lock and the
 * rest degrading to fully serial execution. Each run spawns the
 * threads of its lease for itself (runOnThreads, harness/pool.hh), so
 * every domain worker has a thread of its own. Results never depend
 * on the lease outcome.
 */

#pragma once

#include <atomic>
#include <cstdint>

#include "sim/domain.hh"

namespace barre
{

/**
 * Process-wide lease accounting for scheduler worker threads. The
 * capacity is the host's worker budget (defaultWorkers());
 * each concurrent partitioned run leases the extra threads it wants
 * (its calling thread is free — it always participates), clamped to
 * what is still unleased. A run that arrives when the budget is
 * exhausted simply runs single-threaded — results are identical by
 * construction, only wall time differs.
 */
class WorkerBudget
{
  public:
    explicit WorkerBudget(unsigned capacity)
        : cap_(capacity ? capacity : 1)
    {
    }

    /**
     * Lease up to @p want - 1 extra threads (the caller is the first
     * worker). @return the granted total worker count, in
     * [1, want]; pass it to release() when the run finishes.
     */
    unsigned
    acquire(unsigned want)
    {
        if (want <= 1)
            return 1;
        const unsigned extra = want - 1;
        unsigned cur = used_.load(std::memory_order_relaxed);
        unsigned grant;
        do {
            const unsigned avail = cap_ > cur + 1 ? cap_ - 1 - cur : 0;
            grant = extra < avail ? extra : avail;
        } while (!used_.compare_exchange_weak(
            cur, cur + grant, std::memory_order_acq_rel,
            std::memory_order_relaxed));
        return 1 + grant;
    }

    /** Return a lease obtained from acquire(). */
    void
    release(unsigned granted)
    {
        if (granted > 1)
            used_.fetch_sub(granted - 1, std::memory_order_acq_rel);
    }

    unsigned capacity() const { return cap_; }

    /** Extra threads currently leased across all runs. */
    unsigned
    inUse() const
    {
        return used_.load(std::memory_order_acquire);
    }

  private:
    const unsigned cap_;
    std::atomic<unsigned> used_{0};
};

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
     * @param threads   worker threads to use (clamped to the domain
     *                  count; 0 = defaultWorkers()).
     * @return events fired during this run; eq.epochs() then counts
     *         the run's epochs.
     */
    static std::uint64_t run(EventQueue &eq, Tick lookahead,
                             unsigned threads);

    /** The process-wide worker-thread budget shared by all runs. */
    static WorkerBudget &budget();
};

} // namespace barre
