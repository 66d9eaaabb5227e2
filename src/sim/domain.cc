/**
 * @file
 * TaggedEngine cold paths: the epoch-barrier staging drain and the
 * structural audit.
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
        domains_[tag_domain_[op.owner]].heap.push(Entry{
            when, op.sent, op.key, op.owner, std::move(op.deliver)});
    }
    scratch_arb_.clear();

    // Staged plain deliveries carry complete keys; insertion order is
    // irrelevant to firing order, so a simple per-outbox sweep is
    // deterministic.
    for (Domain &dom : domains_) {
        for (Entry &e : dom.out)
            domains_[tag_domain_[e.tag]].heap.push(std::move(e));
        dom.out.clear();
    }
}

void
TaggedEngine::auditDomain(std::uint32_t d) const
{
    const Domain &dom = domains_[d];
    for (const Entry &e : dom.heap) {
        barre_assert(e.when >= dom.now,
                     "domain %u heap entry at tick %llu is in the past "
                     "(now %llu)",
                     d, (unsigned long long)e.when,
                     (unsigned long long)dom.now);
        barre_assert(tag_domain_[e.tag] == d,
                     "domain %u holds an event for tag %u (domain %u)",
                     d, unsigned(e.tag), tag_domain_[e.tag]);
    }
    dom.heap.auditOrder("tagged domain");
}

} // namespace barre
