/**
 * @file
 * EventQueue cold paths: the epoch-barrier staging drain and the
 * structural audit.
 */

#include "sim/domain.hh"

namespace barre
{

void
EventQueue::drainStaged()
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
        TagScope scope(*this, op.owner);
        const Tick when = op.hook->arbitrate(op.sent, op.bytes);
        BARRE_AUDIT(barre_assert(
            when >= horizon_,
            "arbitrated delivery at tick %llu (sent %llu) inside the "
            "epoch horizon %llu: lookahead is unsound",
            (unsigned long long)when, (unsigned long long)op.sent,
            (unsigned long long)horizon_));
        push(domains_[tag_domain_[op.owner]],
             {when, op.sent, op.key, 0, op.owner}, std::move(op.deliver));
    }
    scratch_arb_.clear();

    // Staged plain deliveries carry complete keys; insertion order is
    // irrelevant to firing order, so a simple per-outbox sweep is
    // deterministic.
    for (Domain &dom : domains_) {
        for (Staged &s : dom.out)
            push(domains_[tag_domain_[s.rec.tag]], s.rec, std::move(s.cb));
        dom.out.clear();
    }
}

void
EventQueue::auditDomain(std::uint32_t d) const
{
    const Domain &dom = domains_[d];
    // 1 = named by a heap record, 2 = on the free list. A fired top
    // awaiting replacement (runEpoch's hole) names a freed slot.
    std::vector<std::uint8_t> use(dom.slab.size(), 0);
    for (const Record &r : dom.heap) {
        if (dom.hole && &r == &dom.heap.top())
            continue;
        barre_assert(r.when >= dom.now,
                     "domain %u heap entry at tick %llu is in the past "
                     "(now %llu)",
                     d, (unsigned long long)r.when,
                     (unsigned long long)dom.now);
        barre_assert(tag_domain_[r.tag] == d,
                     "domain %u holds an event for tag %u (domain %u)",
                     d, unsigned(r.tag), tag_domain_[r.tag]);
        barre_assert(r.slot < use.size() && use[r.slot] == 0 &&
                         dom.slab[r.slot],
                     "domain %u record names slab slot %u, which holds "
                     "no live callback of its own",
                     d, r.slot);
        use[r.slot] = 1;
    }
    for (std::uint32_t s : dom.free) {
        barre_assert(s < use.size() && use[s] == 0 && !dom.slab[s],
                     "domain %u free list names slab slot %u, which a "
                     "record, an earlier free entry or a callback holds",
                     d, s);
        use[s] = 2;
    }
    const std::size_t live = dom.heap.size() - dom.hole;
    barre_assert(live + dom.free.size() == dom.slab.size(),
                 "domain %u: %zu records + %zu free slots != slab of %zu",
                 d, live, dom.free.size(), dom.slab.size());
    dom.heap.auditOrder("event domain");
}

} // namespace barre
