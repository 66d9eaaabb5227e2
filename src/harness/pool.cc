#include "harness/pool.hh"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <future>
#include <thread>

#ifdef __linux__
#include <sched.h>
#endif

#include "harness/sweep_io.hh"
#include "sim/logging.hh"

namespace barre
{

namespace
{

/** CPUs this thread may run on; 0 when unknown. */
unsigned
usableCpus()
{
#ifdef __linux__
    // hardware_concurrency() counts every online CPU, even those a
    // cpuset or `taskset` rules out.
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return unsigned(CPU_COUNT(&set));
#endif
    return std::thread::hardware_concurrency();
}

} // namespace

unsigned
defaultWorkers()
{
    // Strict, like every other numeric knob: a typo must not quietly
    // run on every core. Empty means unset.
    const char *s = std::getenv("BARRE_JOBS");
    if (s && *s) {
        const unsigned v = parseUnsignedArg(s, "BARRE_JOBS");
        if (v == 0)
            barre_fatal("BARRE_JOBS: must be >= 1, got '%s'", s);
        if (v > kMaxJobs) {
            barre_warn("BARRE_JOBS='%s' exceeds the %u-worker cap; "
                       "clamping",
                       s, kMaxJobs);
            return kMaxJobs;
        }
        return v;
    }
    const unsigned cpus = usableCpus();
    return cpus > 0 ? cpus : 1;
}

void
runOnThreads(std::size_t k, const std::function<void(std::size_t)> &fn)
{
    std::vector<std::exception_ptr> errors(k);
    // No task starts until every thread exists: if a spawn fails, the
    // spawned threads skip their task (which could wait forever for the
    // missing peer) and are joined before the error leaves. Each thread
    // reads the go signal through its own copy of the shared future.
    std::promise<bool> go;
    auto task = [&, started = go.get_future().share()](std::size_t i) {
        if (!started.get())
            return;
        try {
            fn(i);
        } catch (...) {
            errors[i] = std::current_exception();
        }
    };
    std::vector<std::thread> threads;
    try {
        for (std::size_t i = 1; i < k; ++i)
            threads.emplace_back(task, i);
    } catch (...) {
        go.set_value(false);
        for (std::thread &t : threads)
            t.join();
        throw;
    }
    go.set_value(true);
    if (k > 0)
        task(0);
    for (std::thread &t : threads)
        t.join();
    for (const std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);
}

void
parallelFor(unsigned workers, const std::vector<std::size_t> &order,
            const std::function<void(std::size_t)> &fn)
{
    if (workers == 0)
        workers = defaultWorkers();
    const std::size_t threads =
        workers < order.size() ? workers : order.size();
    std::atomic<std::size_t> next{0};
    runOnThreads(threads, [&](std::size_t) {
        std::exception_ptr err;
        for (std::size_t i; (i = next.fetch_add(1)) < order.size();) {
            try {
                fn(order[i]);
            } catch (...) {
                if (!err)
                    err = std::current_exception();
            }
        }
        if (err)
            std::rethrow_exception(err);
    });
}

void
parallelFor(unsigned workers, std::size_t n,
            const std::function<void(std::size_t)> &fn)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = n - 1 - i;
    parallelFor(workers, order, fn);
}

} // namespace barre
