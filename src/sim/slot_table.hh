/**
 * @file
 * Stable slots plus a free list for the state an event continuation
 * would otherwise carry. The continuation captures its owner and the
 * slot index, so it fits InlineFn's inline buffer (sim/inline_fn.hh)
 * and scheduling it never touches the allocator.
 *
 * A table belongs to its owner's event domain: only the owner's events
 * read or write it. A closure that runs in another domain carries what
 * it needs there by value, never a slot of this table.
 */

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace barre
{

template <class T>
class SlotTable
{
  public:
    /** Park @p v; @return its slot, stable until release(). */
    std::uint32_t
    acquire(T v)
    {
        if (free_.empty()) {
            slots_.push_back(std::move(v));
            return static_cast<std::uint32_t>(slots_.size() - 1);
        }
        const std::uint32_t s = free_.back();
        free_.pop_back();
        slots_[s] = std::move(v);
        return s;
    }

    T &operator[](std::uint32_t s) { return slots_[s]; }
    const T &operator[](std::uint32_t s) const { return slots_[s]; }

    /** Move slot @p s 's value out and free the slot. */
    T
    release(std::uint32_t s)
    {
        T v = std::move(slots_[s]);
        free_.push_back(s);
        return v;
    }

  private:
    std::vector<T> slots_;
    std::vector<std::uint32_t> free_;
};

} // namespace barre
