/**
 * @file
 * TaggedEngine cold paths: the epoch-barrier staging drain, per-domain
 * heap maintenance, and the structural audit.
 */

#include "sim/domain.hh"

namespace barre
{

void
TaggedEngine::drainStaged()
{
    // Gather every staged arbitration op and replay them in the global
    // order a serial run would have presented them to the shared
    // resource: by send tick, then by the sending event's composite
    // key, then by issue order within that event. All components are
    // partition-independent, so the replay is too.
    scratch_arb_.clear();
    for (Domain &dom : domains_) {
        for (StagedArb &op : dom.arb_out)
            scratch_arb_.push_back(std::move(op));
        dom.arb_out.clear();
    }
    std::sort(scratch_arb_.begin(), scratch_arb_.end(), arbBefore);
    for (StagedArb &op : scratch_arb_) {
        // Establish the owner's execution context so any stats the
        // hook bumps shard onto the owner tag instead of whatever tag
        // the caller happened to carry.
        TagScope scope(this, op.owner);
        const Tick when = op.hook->arbitrate(op.sent, op.bytes);
        BARRE_AUDIT(barre_assert(
            when >= horizon_,
            "arbitrated delivery at tick %llu (sent %llu) inside the "
            "epoch horizon %llu: lookahead is unsound",
            (unsigned long long)when, (unsigned long long)op.sent,
            (unsigned long long)horizon_));
        heapPush(domains_[tag_domain_[op.owner]],
                 Entry{when, op.sent, op.key, op.owner,
                       std::move(op.deliver)});
    }
    scratch_arb_.clear();

    // Staged plain deliveries carry complete keys; insertion order is
    // irrelevant to firing order, so a simple per-outbox sweep is
    // deterministic.
    for (Domain &dom : domains_) {
        for (Entry &e : dom.out)
            heapPush(domains_[tag_domain_[e.tag]], std::move(e));
        dom.out.clear();
    }
}

void
TaggedEngine::heapPush(Domain &dom, Entry e)
{
    std::vector<Entry> &h = dom.heap;
    std::size_t i = h.size();
    h.push_back(Entry{});
    // Sift the hole up, moving parents down (no closure copies).
    while (i > 0) {
        std::size_t p = (i - 1) >> 2;
        if (!entryBefore(e, h[p]))
            break;
        h[i] = std::move(h[p]);
        i = p;
    }
    h[i] = std::move(e);
}

TaggedEngine::Entry
TaggedEngine::heapPop(Domain &dom)
{
    std::vector<Entry> &h = dom.heap;
    Entry out = std::move(h.front());
    Entry tail = std::move(h.back());
    h.pop_back();
    const std::size_t n = h.size();
    if (n > 0) {
        std::size_t i = 0;
        for (;;) {
            std::size_t c = 4 * i + 1;
            if (c >= n)
                break;
            std::size_t m = c;
            const std::size_t end = c + 4 < n ? c + 4 : n;
            for (++c; c < end; ++c) {
                if (entryBefore(h[c], h[m]))
                    m = c;
            }
            if (!entryBefore(h[m], tail))
                break;
            h[i] = std::move(h[m]);
            i = m;
        }
        h[i] = std::move(tail);
    }
    return out;
}

void
TaggedEngine::auditDomain(std::uint32_t d) const
{
    const Domain &dom = domains_[d];
    const std::size_t n = dom.heap.size();
    for (std::size_t i = 0; i < n; ++i) {
        const Entry &e = dom.heap[i];
        barre_assert(e.when >= dom.now,
                     "domain %u heap entry %zu at tick %llu is in the "
                     "past (now %llu)",
                     d, i, (unsigned long long)e.when,
                     (unsigned long long)dom.now);
        barre_assert(tag_domain_[e.tag] == d,
                     "domain %u holds an event for tag %u (domain %u)",
                     d, unsigned(e.tag), tag_domain_[e.tag]);
        if (i == 0)
            continue;
        const std::size_t p = (i - 1) >> 2;
        barre_assert(!entryBefore(e, dom.heap[p]),
                     "domain %u 4-ary heap order violated at index %zu",
                     d, i);
    }
}

} // namespace barre
