/**
 * @file
 * Physically-indexed, physically-tagged set-associative data cache.
 *
 * Functional hit/miss with LRU replacement; the chiplet memory pipeline
 * charges latencies. Used for per-CU L1 vector caches and the per-chiplet
 * L2 (Table II geometries).
 */

#pragma once

#include <cstdint>
#include <vector>

#include "mem/types.hh"
#include "sim/domain_guard.hh"
#include "sim/stats.hh"

namespace barre
{

struct CacheParams
{
    std::uint64_t size_bytes = 16 * 1024;
    std::uint32_t ways = 4;
    std::uint32_t line_bytes = 64;
    Cycles hit_latency = 1;

    bool operator==(const CacheParams &) const = default;
};

// domain-owner:chiplet — every instance (per-CU L1s, per-chiplet L2)
// lives inside one chiplet; remote data goes over the Interconnect.
class Cache : public DomainOwned
{
  public:
    explicit Cache(const CacheParams &p);

    /**
     * Access the line containing physical address @p paddr, filling on
     * miss. @return true on hit.
     */
    bool access(Addr paddr);

    /** Invalidate every line whose frame is @p pfn (page migration). */
    std::uint32_t invalidatePage(Pfn pfn, std::uint32_t page_shift);

    void invalidateAll();

    const CacheParams &params() const { return params_; }
    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }

  private:
    struct Way
    {
        Addr tag = ~Addr{0};
        std::uint64_t lru = 0;
        bool valid = false;
    };

    CacheParams params_;
    std::uint32_t sets_;
    std::uint32_t line_shift_;
    std::vector<Way> ways_;
    std::uint64_t stamp_ = 0;
    Counter hits_;
    Counter misses_;
};

} // namespace barre

