#include "harness/domain_scheduler.hh"

#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "harness/pool.hh"
#include "sim/logging.hh"

namespace barre
{

namespace
{

/**
 * A sense-counting barrier for the epoch loops: bounded spin first
 * (epochs are short — microseconds — so parked threads would spend
 * their life in futex calls), then yield so oversubscribed hosts
 * (including single-core CI runners) keep making progress. A worker
 * that fails calls abort() instead of arriving, which releases every
 * waiter, present and future, with wait() returning false.
 */
class EpochBarrier
{
  public:
    explicit EpochBarrier(unsigned n) : n_(n) {}

    /** @return false once the barrier is aborted: stop the run. */
    bool
    wait()
    {
        const std::uint64_t gen = gen_.load(std::memory_order_acquire);
        if (count_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
            // Reset before releasing the generation: every waiter of
            // the next round first observes the new generation, which
            // orders this store before their arrival.
            count_.store(0, std::memory_order_relaxed);
            gen_.fetch_add(1, std::memory_order_release);
            return true;
        }
        unsigned spins = 0;
        while (gen_.load(std::memory_order_acquire) == gen) {
            if (aborted_.load(std::memory_order_acquire))
                return false;
            if (++spins > 256)
                std::this_thread::yield();
        }
        return true;
    }

    void abort() { aborted_.store(true, std::memory_order_release); }

  private:
    const unsigned n_;
    std::atomic<unsigned> count_{0};
    std::atomic<std::uint64_t> gen_{0};
    std::atomic<bool> aborted_{false};
};

Tick
clampAdd(Tick a, Tick b)
{
    return a > max_tick - b ? max_tick : a + b;
}

/**
 * Idle scheduler pools, checked out for the duration of one run and
 * returned afterwards. Keeping a small cache amortizes thread spawns
 * across the frequent short runs of sweeps and benches; concurrent
 * runs each check out (or create) their own pool, so none of them
 * degrades to serial execution just because another run is active.
 */
std::mutex g_pools_mu;
std::vector<std::unique_ptr<ThreadPool>> g_idle_pools;

std::unique_ptr<ThreadPool>
checkoutPool(unsigned workers)
{
    {
        std::lock_guard<std::mutex> lk(g_pools_mu);
        std::size_t best = g_idle_pools.size();
        for (std::size_t i = 0; i < g_idle_pools.size(); ++i) {
            if (g_idle_pools[i]->workers() < workers)
                continue;
            if (best == g_idle_pools.size() ||
                g_idle_pools[i]->workers() <
                    g_idle_pools[best]->workers()) {
                best = i;
            }
        }
        if (best != g_idle_pools.size()) {
            std::unique_ptr<ThreadPool> p =
                std::move(g_idle_pools[best]);
            g_idle_pools.erase(g_idle_pools.begin() +
                               std::ptrdiff_t(best));
            return p;
        }
    }
    return std::make_unique<ThreadPool>(workers);
}

void
returnPool(std::unique_ptr<ThreadPool> p)
{
    std::lock_guard<std::mutex> lk(g_pools_mu);
    // Cap the cache; an excess pool joins its threads on destruction.
    if (g_idle_pools.size() < 4)
        g_idle_pools.push_back(std::move(p));
}

/**
 * The epoch loop, on @p workers workers: the calling thread plus, when
 * @p workers > 1, the pinned workers of @p pool. One worker runs it on
 * the calling thread alone; its barrier waits return at once.
 */
void
runEpochs(TaggedEngine &eng, Tick lookahead, ThreadPool *pool,
          unsigned workers)
{
    struct Shared
    {
        TaggedEngine &eng;
        Tick lookahead;
        std::uint32_t domains;
        unsigned workers;
        EpochBarrier barrier;
        Tick horizon = 0;
        bool done = false;
    };

    const Tick first = eng.nextEventTick();
    if (first == max_tick)
        return;
    Shared sh{eng, lookahead, eng.domains(), workers,
              EpochBarrier(workers)};
    sh.horizon = clampAdd(first, lookahead);
    eng.beginEpoch(sh.horizon);

    auto worker = [&sh](std::size_t w) {
        try {
            for (;;) {
                // Phase A: fire this worker's domains below the
                // horizon. Domain assignment is static (d ≡ w mod
                // workers), so all per-domain and per-tag state stays
                // single-writer.
                for (std::uint32_t d = std::uint32_t(w); d < sh.domains;
                     d += sh.workers) {
                    sh.eng.runEpoch(d, sh.horizon);
                }
                if (!sh.barrier.wait()) // everyone finished the epoch
                    return;
                if (w == 0) {
                    sh.eng.drainStaged();
                    const Tick next = sh.eng.nextEventTick();
                    if (next == max_tick) {
                        sh.done = true;
                    } else {
                        sh.horizon = clampAdd(next, sh.lookahead);
                        sh.eng.beginEpoch(sh.horizon);
                    }
                }
                if (!sh.barrier.wait()) // horizon / done published
                    return;
                if (sh.done)
                    return;
            }
        } catch (...) {
            // Release the peers spinning at (or heading for) the
            // barrier this worker will never reach; the pool rethrows
            // the first error once every worker has returned.
            sh.barrier.abort();
            throw;
        }
    };
    if (pool)
        pool->runPinned(workers, worker);
    else
        worker(0);
}

} // namespace

WorkerBudget &
DomainScheduler::budget()
{
    static WorkerBudget b(ThreadPool::defaultWorkers());
    return b;
}

std::uint64_t
DomainScheduler::run(EventQueue &eq, Tick lookahead, unsigned threads)
{
    TaggedEngine *eng = eq.taggedEngine();
    barre_assert(eng != nullptr,
                 "DomainScheduler::run on an untagged queue");
    barre_assert(lookahead >= 1, "scheduler lookahead must be >= 1");
    const std::uint64_t fired_before = eng->fired();
    const std::uint32_t domains = eng->domains();

    unsigned want = threads != 0 ? threads : ThreadPool::defaultWorkers();
    if (want > domains)
        want = domains;
    if (want < 1)
        want = 1;

    // A one-worker lease (asked for, or all the budget had left) runs
    // the same epoch loop with no pool; results never depend on it.
    const unsigned granted = budget().acquire(want);
    std::unique_ptr<ThreadPool> pool =
        granted > 1 ? checkoutPool(granted) : nullptr;
    eng->setRunning(true);
    try {
        runEpochs(*eng, lookahead, pool.get(), granted);
    } catch (...) {
        if (pool)
            returnPool(std::move(pool));
        budget().release(granted);
        throw;
    }
    eng->setRunning(false);
    if (pool)
        returnPool(std::move(pool));
    budget().release(granted);
    barre_assert(eng->empty(), "partitioned run left staged events");
    return eng->fired() - fired_before;
}

} // namespace barre
