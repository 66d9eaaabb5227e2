/**
 * @file
 * A small work-stealing thread pool for fanning independent simulations
 * out across host cores.
 *
 * Each worker owns a deque of task indices: it pops its own work from the
 * back (LIFO, cache-warm) and steals from the front of a victim's deque
 * when it runs dry (FIFO, takes the oldest — and for simulation sweeps
 * typically largest-remaining — chunk of work). Tasks are plain indices
 * into a caller-provided function, so results can be collected by index
 * and remain deterministically ordered no matter which worker ran what.
 */

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace barre
{

class ThreadPool
{
  public:
    /**
     * A pool of @p workers-way concurrency (0 = defaultWorkers()). The
     * calling thread counts as worker 0 and participates in every
     * parallelFor(), so only workers-1 threads are spawned — and
     * ThreadPool(1) spawns none and degrades to a plain serial loop.
     * Spawned workers park on a condition variable between batches.
     */
    explicit ThreadPool(unsigned workers = 0);

    /** Joins all workers; outstanding parallelFor() must have returned. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned workers() const { return concurrency_; }

    /**
     * Run fn(i) for every i in [0, n), distributed over the workers, and
     * block until all calls returned. The calling thread participates in
     * the work too. If any call throws, the first exception (in worker
     * encounter order) is rethrown here after all tasks finished or were
     * abandoned; remaining queued tasks still run.
     *
     * Not reentrant: one parallelFor() at a time per pool.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn);

    /**
     * Like parallelFor(order.size(), fn), but tasks *start* in the
     * given priority order (a permutation of [0, order.size())): put
     * the expected-longest task first so it never tails the batch.
     * Queues drain FIFO in this mode — both own pops and steals take
     * the highest-priority task still waiting. Which tasks run and
     * what they compute is unchanged; only the start order differs,
     * so index-collected results stay bitwise identical.
     */
    void parallelForOrdered(const std::vector<std::size_t> &order,
                            const std::function<void(std::size_t)> &fn);

    /**
     * Run fn(i) for every i in [0, k) with task i pinned to worker i:
     * exactly one task per worker and no stealing. For cooperating
     * tasks that block on a shared barrier (the epoch scheduler's
     * per-domain loops) — under work stealing one worker could end up
     * owning two such loops and deadlock the barrier. The calling
     * thread runs task 0. @pre k <= workers().
     */
    void runPinned(std::size_t k,
                   const std::function<void(std::size_t)> &fn);

    /**
     * Worker count policy: $BARRE_JOBS if set and non-empty, else
     * std::thread::hardware_concurrency(), else 1. A malformed, zero,
     * negative or out-of-range $BARRE_JOBS is fatal; values above
     * kMaxJobs clamp to it with a warning.
     */
    static unsigned defaultWorkers();

    /** Largest worker count defaultWorkers() returns. */
    static constexpr unsigned kMaxJobs = 1024;

  private:
    struct WorkerQueue
    {
        std::mutex m;
        std::deque<std::size_t> q;
    };

    void workerLoop(std::size_t self);
    void runBatch(std::size_t n, const std::vector<std::size_t> *order,
                  const std::function<void(std::size_t)> &fn,
                  bool pinned = false);
    bool runOneTask(std::size_t self);
    bool popOwn(std::size_t self, std::size_t &out);
    bool stealFrom(std::size_t self, std::size_t &out);

    unsigned concurrency_ = 1;
    std::vector<std::unique_ptr<WorkerQueue>> queues_;
    std::vector<std::thread> threads_;

    std::mutex state_m_;
    std::condition_variable wake_;   ///< workers wait for a batch
    std::condition_variable done_;   ///< parallelFor waits for completion
    const std::function<void(std::size_t)> *fn_ = nullptr;
    // Per-batch mode flags. Written under state_m_ but also read by
    // workers still draining the previous batch, so they are atomics;
    // the authoritative read happens under the task queue's mutex,
    // whose acquire makes the pre-push store visible.
    std::atomic<bool> fifo_{false};   ///< batch drains in priority order
    std::atomic<bool> pinned_{false}; ///< batch forbids work stealing
    std::size_t remaining_ = 0; ///< tasks not yet finished in this batch
    std::uint64_t batch_ = 0;   ///< bumped per parallelFor, wakes workers
    bool stopping_ = false;
    std::exception_ptr first_error_;
};

} // namespace barre

