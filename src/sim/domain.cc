/**
 * @file
 * EventQueue out-of-line paths: a domain's once-per-epoch drain of
 * its inbound lanes and the structural audit.
 */

#include "sim/domain.hh"

namespace barre
{

void
EventQueue::drainInbound(std::uint32_t d)
{
    Domain &dom = domains_[d];
    const unsigned p = parity_ ^ 1;
    // Plain deliveries carry complete keys; insertion order is
    // irrelevant to firing order, so a sweep over the senders is
    // deterministic.
    dom.replay.clear();
    for (Domain &src : domains_) {
        Lane &lane = src.out[p][d];
        for (Staged &s : lane.sends)
            push(dom, s.rec, std::move(s.cb));
        lane.sends.clear();
        for (StagedArb &a : lane.arbs)
            dom.replay.push_back(&a);
    }
    if (dom.replay.empty())
        return;

    // Replay the arbitration ops in the global order a serial run would
    // have presented them to the shared resource: by send tick, then by
    // the sending event's composite key, then by issue order within
    // that event. All components are partition-independent, so the
    // replay is too.
    std::sort(dom.replay.begin(), dom.replay.end(),
              [](const StagedArb *a, const StagedArb *b) {
                  return arbBefore(a->op, b->op);
              });
    ExecCtx &ctx = detail::tls_exec;
    for (StagedArb *a : dom.replay) {
        // Run as the owner tag, so any stats the hook bumps shard onto
        // it.
        ctx.tag = a->owner;
        ArbHook &hook = *a->op.hook;
        [[maybe_unused]] Tick bound = 0;
        BARRE_AUDIT(bound = hook.lowerBound(a->op.sent, a->op.bytes));
        const Tick when = hook.arbitrate(a->op.sent, a->op.bytes);
        BARRE_AUDIT(barre_assert(
            when >= staged_horizon_,
            "arbitrated delivery at tick %llu (sent %llu) inside the "
            "epoch horizon %llu: lookahead is unsound",
            (unsigned long long)when, (unsigned long long)a->op.sent,
            (unsigned long long)staged_horizon_));
        BARRE_AUDIT(barre_assert(
            when >= bound,
            "arbitrated delivery at tick %llu below its hook's lower "
            "bound %llu: the epoch horizon is unsound",
            (unsigned long long)when, (unsigned long long)bound));
        push(dom, {when, a->op.sent, a->key, 0, a->owner},
             std::move(a->deliver));
    }
    for (Domain &src : domains_)
        src.out[p][d].arbs.clear();
}

void
EventQueue::auditDomain(std::uint32_t d) const
{
    const Domain &dom = domains_[d];
    // 1 = named by a record, 2 = on the free list.
    std::vector<std::uint8_t> use(dom.slab.size(), 0);
    auto claim = [&](std::uint32_t s, Tick when, SeqTag tag) {
        barre_assert(s < use.size() && use[s] == 0 && dom.slab[s],
                     "domain %u record names slab slot %u, which holds "
                     "no live callback of its own",
                     d, s);
        barre_assert(when >= dom.now,
                     "domain %u record at tick %llu is in the past "
                     "(now %llu)",
                     d, (unsigned long long)when,
                     (unsigned long long)dom.now);
        barre_assert(tag_domain_[tag] == d,
                     "domain %u holds an event for tag %u (domain %u)",
                     d, unsigned(tag), tag_domain_[tag]);
        use[s] = 1;
    };

    std::size_t near = 0;
    for (std::uint32_t b = 0; b < kWindow; ++b) {
        const auto &bk = dom.buckets[b];
        const bool bit = (dom.occupied[b / 64] >> (b % 64)) & 1;
        barre_assert(bit == (bk.head != kNil),
                     "domain %u bucket %u: occupancy bit %d but %s", d, b,
                     int(bit), bk.head != kNil ? "records" : "empty");
        std::uint32_t prev = kNil;
        for (std::uint32_t s = bk.head; s != kNil; s = dom.nodes[s].next) {
            barre_assert(s < dom.nodes.size() && dom.nodes[s].prev == prev &&
                             ++near <= dom.slab.size(),
                         "domain %u bucket %u: broken link at slot %u", d,
                         b, s);
            const Node &n = dom.nodes[s];
            claim(s, n.when, n.tag);
            barre_assert(n.when - dom.now < kWindow &&
                             n.when % kWindow == b,
                         "domain %u record at tick %llu is misfiled in "
                         "bucket %u (window [%llu, +%u))",
                         d, (unsigned long long)n.when, b,
                         (unsigned long long)dom.now, kWindow);
            if (prev != kNil) {
                const Node &p = dom.nodes[prev];
                barre_assert(p.when == n.when &&
                                 (p.birth < n.birth ||
                                  (p.birth == n.birth && p.key < n.key)),
                             "domain %u bucket %u is out of (birth, key) "
                             "order at slot %u",
                             d, b, s);
            }
            prev = s;
        }
        barre_assert(bk.tail == prev, "domain %u bucket %u: tail %u is "
                                      "not its last record %u",
                     d, b, bk.tail, prev);
    }
    barre_assert(near == dom.near, "domain %u counts %zu near records, "
                                   "its buckets hold %zu",
                 d, dom.near, near);

    for (const Record &r : dom.far) {
        claim(r.slot, r.when, r.tag);
        const Node &n = dom.nodes[r.slot];
        barre_assert(r.when - dom.now >= kWindow,
                     "domain %u far record at tick %llu lies inside the "
                     "window [%llu, +%u)",
                     d, (unsigned long long)r.when,
                     (unsigned long long)dom.now, kWindow);
        barre_assert(n.when == r.when && n.birth == r.birth &&
                         n.key == r.key && n.tag == r.tag,
                     "domain %u far record disagrees with slot %u", d,
                     r.slot);
    }
    dom.far.auditOrder("event domain far heap");

    for (std::uint32_t s : dom.free) {
        barre_assert(s < use.size() && use[s] == 0 && !dom.slab[s],
                     "domain %u free list names slab slot %u, which a "
                     "record, an earlier free entry or a callback holds",
                     d, s);
        use[s] = 2;
    }
    const std::size_t live = dom.near + dom.far.size();
    barre_assert(live + dom.free.size() == dom.slab.size() &&
                     dom.nodes.size() == dom.slab.size(),
                 "domain %u: %zu records + %zu free slots != slab of %zu",
                 d, live, dom.free.size(), dom.slab.size());
}

} // namespace barre
