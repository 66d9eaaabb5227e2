#include "harness/pool.hh"

#include <cstdlib>

#include "harness/sweep_io.hh"
#include "sim/logging.hh"

namespace barre
{

unsigned
ThreadPool::defaultWorkers()
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
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

ThreadPool::ThreadPool(unsigned workers)
    : concurrency_(workers > 0 ? workers : defaultWorkers())
{
    queues_.reserve(concurrency_);
    for (unsigned i = 0; i < concurrency_; ++i)
        queues_.push_back(std::make_unique<WorkerQueue>());
    // Slot 0 is the calling thread; spawn the rest.
    threads_.reserve(concurrency_ - 1);
    for (unsigned i = 1; i < concurrency_; ++i)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(state_m_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (auto &t : threads_)
        t.join();
}

bool
ThreadPool::popOwn(std::size_t self, std::size_t &out)
{
    WorkerQueue &wq = *queues_[self];
    std::lock_guard<std::mutex> lk(wq.m);
    if (wq.q.empty())
        return false;
    if (fifo_.load(std::memory_order_relaxed)) {
        // Priority-ordered batch: always take the highest-priority
        // (earliest-dealt) task still waiting.
        out = wq.q.front();
        wq.q.pop_front();
    } else {
        out = wq.q.back();
        wq.q.pop_back();
    }
    return true;
}

bool
ThreadPool::stealFrom(std::size_t self, std::size_t &out)
{
    if (pinned_.load(std::memory_order_relaxed))
        return false;
    const std::size_t n = queues_.size();
    for (std::size_t off = 1; off < n; ++off) {
        WorkerQueue &wq = *queues_[(self + off) % n];
        std::lock_guard<std::mutex> lk(wq.m);
        // Re-check under the victim's lock: a worker still draining
        // the previous batch may race the flag write above, but a
        // task pushed for a pinned batch is only visible together
        // with pinned_ = true (both precede the push's unlock).
        if (pinned_.load(std::memory_order_relaxed))
            return false;
        if (wq.q.empty())
            continue;
        out = wq.q.front();
        wq.q.pop_front();
        return true;
    }
    return false;
}

bool
ThreadPool::runOneTask(std::size_t self)
{
    std::size_t idx;
    if (!popOwn(self, idx) && !stealFrom(self, idx))
        return false;

    try {
        (*fn_)(idx);
    } catch (...) {
        std::lock_guard<std::mutex> lk(state_m_);
        if (!first_error_)
            first_error_ = std::current_exception();
    }

    std::lock_guard<std::mutex> lk(state_m_);
    if (--remaining_ == 0)
        done_.notify_all();
    return true;
}

void
ThreadPool::workerLoop(std::size_t self)
{
    std::uint64_t seen = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lk(state_m_);
            wake_.wait(lk,
                       [&] { return stopping_ || batch_ != seen; });
            if (stopping_)
                return;
            seen = batch_;
        }
        while (runOneTask(self)) {
        }
    }
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &fn)
{
    runBatch(n, nullptr, fn);
}

void
ThreadPool::parallelForOrdered(const std::vector<std::size_t> &order,
                               const std::function<void(std::size_t)> &fn)
{
    runBatch(order.size(), &order, fn);
}

void
ThreadPool::runPinned(std::size_t k,
                      const std::function<void(std::size_t)> &fn)
{
    barre_assert(k <= concurrency_,
                 "runPinned(%zu) on a %u-worker pool", k, concurrency_);
    runBatch(k, nullptr, fn, /*pinned=*/true);
}

void
ThreadPool::runBatch(std::size_t n,
                     const std::vector<std::size_t> *order,
                     const std::function<void(std::size_t)> &fn,
                     bool pinned)
{
    if (n == 0)
        return;

    {
        std::lock_guard<std::mutex> lk(state_m_);
        barre_assert(fn_ == nullptr, "parallelFor is not reentrant");
        fn_ = &fn;
        fifo_ = order != nullptr;
        pinned_ = pinned;
        remaining_ = n;
        first_error_ = nullptr;
        // Deal tasks round-robin (a pinned batch has n <= workers, so
        // task i lands on worker i's queue); an ordered batch deals in
        // priority order so FIFO pops start the most expensive work
        // first.
        for (std::size_t i = 0; i < n; ++i) {
            std::size_t task = order ? (*order)[i] : i;
            WorkerQueue &wq = *queues_[i % queues_.size()];
            std::lock_guard<std::mutex> qlk(wq.m);
            wq.q.push_back(task);
        }
        ++batch_;
    }
    wake_.notify_all();

    // The caller is worker 0.
    while (runOneTask(0)) {
    }

    std::exception_ptr err;
    {
        std::unique_lock<std::mutex> lk(state_m_);
        done_.wait(lk, [&] { return remaining_ == 0; });
        fn_ = nullptr;
        pinned_ = false;
        err = first_error_;
        first_error_ = nullptr;
    }
    if (err)
        std::rethrow_exception(err);
}

} // namespace barre
