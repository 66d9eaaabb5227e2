#include "calib.hh"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

#include "spans.hh"

namespace perfbench
{

namespace
{

constexpr unsigned kTableBits = 21;          // 2 Mi words, 16 MiB
constexpr std::size_t kLiveEvents = 4096;    // heap size
constexpr std::uint64_t kSteps = 1ull << 18; // events fired per call

/** One thread's kernel over @p table; @return its host seconds. */
double
kernel(std::vector<std::uint64_t> &table)
{
    using Event = std::pair<std::uint64_t, std::uint64_t>; // (when, key)
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>> heap;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    for (std::size_t i = 0; i < kLiveEvents; ++i)
        heap.push({next() & 1023, next()});

    const Clock::time_point t0 = Clock::now();
    std::uint64_t sum = 0;
    for (std::uint64_t s = 0; s < kSteps; ++s) {
        const Event e = heap.top();
        heap.pop();
        std::uint64_t &slot =
            table[(e.second * 0x9e3779b97f4a7c15ull) >> (64 - kTableBits)];
        slot = slot * 31 + e.first;
        sum += slot;
        heap.push({e.first + 1 + (next() & 255), next()});
    }
    table[0] += sum; // keeps the loop's loads live
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

} // namespace

CalibTime
calibrate(unsigned threads)
{
    // Tables are allocated once, so no call pays their page faults and
    // every call makes the same pops, pushes and table addresses.
    static std::vector<std::vector<std::uint64_t>> tables;
    threads = std::max(1u, threads);
    while (tables.size() < threads)
        tables.emplace_back(std::size_t(1) << kTableBits);

    std::vector<double> secs(threads);
    std::vector<std::thread> others;
    for (unsigned t = 1; t < threads; ++t)
        others.emplace_back([&, t] { secs[t] = kernel(tables[t]); });
    secs[0] = kernel(tables[0]);
    for (std::thread &th : others)
        th.join();

    CalibTime c;
    for (double s : secs) {
        c.mean_s += s / threads;
        c.max_s = std::max(c.max_s, s);
    }
    return c;
}

} // namespace perfbench
