#include "harness/domain_scheduler.hh"

#include <atomic>
#include <thread>

#include "harness/pool.hh"
#include "sim/logging.hh"

namespace barre
{

namespace
{

/**
 * A sense-counting barrier for the epoch loop: bounded spin first
 * (epochs are short — microseconds — so parked threads would spend
 * their life in futex calls), then yield so oversubscribed hosts
 * (including single-core CI runners) keep making progress. The last
 * thread to arrive runs the round's step before it releases the
 * others. A worker that fails calls abort() instead of arriving, also
 * when the step it ran threw out of wait(); that releases every
 * waiter, present and future, with wait() returning false.
 */
class EpochBarrier
{
  public:
    explicit EpochBarrier(unsigned n) : n_(n) {}

    /** @return false once the barrier is aborted: stop the run. */
    template <class Step>
    bool
    wait(Step &&step)
    {
        const std::uint64_t gen = gen_.load(std::memory_order_acquire);
        if (count_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
            step();
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
 * The epoch loop, on @p workers threads of its own (runOnThreads): the
 * calling thread plus @p workers - 1 spawned ones. One worker runs it
 * on the calling thread alone; its barrier waits return at once.
 */
void
runEpochs(EventQueue &eng, Tick lookahead, unsigned workers)
{
    struct Shared
    {
        EventQueue &eng;
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

    // The last worker to finish an epoch closes it: the next epoch
    // starts at the earliest pending tick anywhere, staged sends
    // included, so an idle stretch costs one epoch.
    auto close_epoch = [&sh] {
        const Tick next = sh.eng.nextEventTick();
        if (next == max_tick) {
            sh.done = true;
        } else {
            sh.horizon = clampAdd(next, sh.lookahead);
            sh.eng.beginEpoch(sh.horizon);
        }
    };

    auto worker = [&sh, &close_epoch](std::size_t w) {
        try {
            for (;;) {
                // Drain and fire this worker's domains below the
                // horizon. Domain assignment is static (d ≡ w mod
                // workers), so all per-domain and per-tag state stays
                // single-writer and each domain's queue stays on one
                // core.
                for (std::uint32_t d = std::uint32_t(w); d < sh.domains;
                     d += sh.workers) {
                    sh.eng.runEpoch(d, sh.horizon);
                }
                if (!sh.barrier.wait(close_epoch))
                    return;
                if (sh.done)
                    return;
            }
        } catch (...) {
            // Release the peers spinning at (or heading for) the
            // barrier this worker will never reach or release, when
            // its epoch step threw; runOnThreads rethrows the error
            // once every worker has returned.
            sh.barrier.abort();
            throw;
        }
    };
    runOnThreads(workers, worker);
}

} // namespace

WorkerBudget &
DomainScheduler::budget()
{
    static WorkerBudget b(defaultWorkers());
    return b;
}

std::uint64_t
DomainScheduler::run(EventQueue &eq, Tick lookahead, unsigned threads)
{
    barre_assert(lookahead >= 1, "scheduler lookahead must be >= 1");
    const std::uint64_t fired_before = eq.fired();
    const std::uint32_t domains = eq.domains();

    unsigned want = threads != 0 ? threads : defaultWorkers();
    if (want > domains)
        want = domains;
    if (want < 1)
        want = 1;

    // A one-worker lease (asked for, or all the budget had left) runs
    // the same epoch loop on the calling thread alone; results never
    // depend on it.
    const unsigned granted = budget().acquire(want);
    eq.setRunning(true);
    try {
        runEpochs(eq, lookahead, granted);
    } catch (...) {
        budget().release(granted);
        throw;
    }
    eq.setRunning(false);
    budget().release(granted);
    barre_assert(eq.empty(), "partitioned run left staged events");
    return eq.fired() - fired_before;
}

} // namespace barre
