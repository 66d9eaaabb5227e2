/**
 * @file
 * The 4-ary min-heap behind each EventQueue domain (sim/domain.hh).
 *
 * Four children per node halve a binary heap's depth, and both sift
 * loops move a hole instead of swapping, so an entry is relocated once
 * per level. The queue keeps its entries to 32-byte firing records
 * whose callbacks wait in a slab, so a sift never moves a closure. The
 * firing order comes from @p Before, a stateless "fires strictly
 * earlier" predicate; the queue's key is a total order, so the heap
 * never sees a tie.
 */

#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "sim/logging.hh"

namespace barre
{

template <class T, class Before>
class QuadHeap
{
  public:
    bool empty() const { return v_.empty(); }
    std::size_t size() const { return v_.size(); }
    void reserve(std::size_t n) { v_.reserve(n); }

    /** The entry that fires first. @pre !empty() */
    const T &top() const { return v_.front(); }

    /** Entries in storage (not firing) order, for audits. */
    auto begin() const { return v_.begin(); }
    auto end() const { return v_.end(); }

    void
    push(T e)
    {
        std::size_t i = v_.size();
        v_.push_back(T{});
        while (i > 0) {
            const std::size_t p = (i - 1) >> 2;
            if (!Before{}(e, v_[p]))
                break;
            v_[i] = std::move(v_[p]);
            i = p;
        }
        v_[i] = std::move(e);
    }

    /** Remove and return the first entry by move. @pre !empty() */
    T
    pop()
    {
        T out = std::move(v_.front());
        T tail = std::move(v_.back());
        v_.pop_back();
        if (!v_.empty())
            siftDown(std::move(tail));
        return out;
    }

    /** Replace the first entry with @p e (a pop then a push, in one
     *  sift). @pre !empty() */
    void replaceTop(T e) { siftDown(std::move(e)); }

    /** Panic (throw) if an entry fires before its parent; @p what
     *  names the heap in the message. O(size). */
    void
    auditOrder(const char *what) const
    {
        for (std::size_t i = 1; i < v_.size(); ++i) {
            barre_assert(!Before{}(v_[i], v_[(i - 1) >> 2]),
                         "%s: 4-ary heap order violated at index %zu",
                         what, i);
        }
    }

  private:
    /** Sift @p e down from the root's hole to its place. */
    void
    siftDown(T e)
    {
        const std::size_t n = v_.size();
        std::size_t i = 0;
        for (;;) {
            std::size_t c = 4 * i + 1;
            if (c >= n)
                break;
            std::size_t m = c;
            const std::size_t end = c + 4 < n ? c + 4 : n;
            for (++c; c < end; ++c) {
                if (Before{}(v_[c], v_[m]))
                    m = c;
            }
            if (!Before{}(v_[m], e))
                break;
            v_[i] = std::move(v_[m]);
            i = m;
        }
        v_[i] = std::move(e);
    }

    std::vector<T> v_;
};

} // namespace barre
