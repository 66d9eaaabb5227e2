/**
 * @file
 * Miss-status holding registers shared by TLBs and caches.
 *
 * Tracks outstanding misses keyed by (process, address-ish key). Requests
 * to a key already in flight merge onto that entry. A full MSHR file has
 * no room for a new key: the requester checks inFlight()/full() first and
 * parks until a completion frees a slot (modeling the back-pressure
 * examined in paper Fig 4). Allocating a new key into a full file is a
 * caller bug and panics.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "mem/types.hh"
#include "sim/domain_guard.hh"
#include "sim/flat_map.hh"
#include "sim/inline_fn.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

namespace barre
{

/**
 * @tparam Result value delivered to waiting requesters on completion.
 */
// domain-owner:shared — bound per instance (chiplet L2 MSHRs vs the
// host-shared L2 TLB's MSHR file) by the System.
template <typename Result>
class Mshr : public DomainOwned
{
  public:
    using Callback = InlineFn<void(const Result &)>;
    using Key = std::uint64_t;

    explicit Mshr(std::uint32_t capacity) : capacity_(capacity)
    {
        barre_assert(capacity > 0, "zero-capacity MSHR file");
    }

    static Key
    keyOf(ProcessId pid, std::uint64_t addr_key)
    {
        return (std::uint64_t{pid} << 48) ^ addr_key;
    }

    /** Outcome of trying to register a miss. */
    enum class Outcome
    {
        primary,   ///< new entry allocated; caller must launch the fill
        secondary, ///< merged onto an in-flight entry
    };

    Outcome
    allocate(Key key, Callback cb)
    {
        domainCheck("allocate");
        if (std::vector<Callback> *waiters = entries_.find(key)) {
            waiters->push_back(std::move(cb));
            ++secondary_;
            return Outcome::secondary;
        }
        barre_assert(entries_.size() < capacity_,
                     "new MSHR entry in a full file (park first)");
        entries_[key].push_back(std::move(cb));
        return Outcome::primary;
    }

    /**
     * Complete an in-flight miss, firing all merged callbacks in
     * registration order.
     */
    void
    complete(Key key, const Result &result)
    {
        domainCheck("complete");
        barre_assert(entries_.contains(key),
                     "completing unknown MSHR entry");
        // Detach first: callbacks may allocate the same key again.
        std::vector<Callback> waiters = entries_.take(key);
        for (auto &cb : waiters)
            cb(result);
    }

    bool inFlight(Key key) const { return entries_.contains(key); }
    bool full() const { return entries_.size() >= capacity_; }
    std::size_t occupancy() const { return entries_.size(); }
    std::uint32_t capacity() const { return capacity_; }

    std::uint64_t secondaryMisses() const { return secondary_.value(); }

  private:
    std::uint32_t capacity_;
    FlatMap<Key, std::vector<Callback>> entries_;
    Counter secondary_;
};

} // namespace barre

