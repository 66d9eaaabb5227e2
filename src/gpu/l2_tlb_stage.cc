#include "gpu/l2_tlb_stage.hh"

#include <unordered_set>

#include "sim/invariant.hh"
#include "sim/logging.hh"

namespace barre
{

L2TlbStage::L2TlbStage(EventQueue &eq, std::string name,
                       const TlbParams &params, ChipletId first,
                       std::uint32_t requesters, Cycles retry_interval,
                       Launch launch)
    : SimObject(eq, std::move(name)), first_(first),
      retry_interval_(retry_interval), launch_(std::move(launch)),
      tlb_(params), mshr_(params.mshrs), parked_(requesters),
      misses_(requesters), retries_(requesters)
{
    // Every new entry readies the requests parked on its key: fills,
    // unsolicited fills, and Least's spills, which a peer inserts into
    // this TLB directly.
    tlb_.setInsertListener([this](const TlbEntry &e) {
        markReady(Mshr<TlbEntry>::keyOf(e.pid, e.vpn));
    });
}

void
L2TlbStage::fill(ChipletId src, const AtsResponse &resp)
{
    if (validator_)
        validator_(resp.pid, resp.vpn, resp.pfn, resp.calculated);
    const TlbEntry te = install(src, resp);
    mshr_.complete(Mshr<TlbEntry>::keyOf(resp.pid, resp.vpn), te);
    wake();
}

TlbEntry
L2TlbStage::install(ChipletId src, const AtsResponse &resp)
{
    if (service_)
        service_->onResponse(src, resp);
    TlbEntry te;
    te.pid = resp.pid;
    te.vpn = resp.vpn;
    te.pfn = resp.pfn;
    te.coal = resp.coal;
    te.valid = true;
    tlb_.insert(te);
    if (service_)
        service_->onL2Insert(src, te);
    return te;
}

void
L2TlbStage::markParked(Key key)
{
    if (const std::uint32_t *head = key_head_.find(key)) {
        for (std::uint32_t id = *head; id != kNoSlot;
             id = slots_[id].next_same_key)
            state_[id].ready = true;
    }
}

void
L2TlbStage::park(ChipletId src, ProcessId pid, Vpn vpn, Cont cont)
{
    std::uint32_t id;
    if (free_.empty()) {
        id = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
        state_.emplace_back();
    } else {
        id = free_.back();
        free_.pop_back();
    }
    auto [head, fresh] = key_head_.tryEmplace(Mshr<TlbEntry>::keyOf(pid, vpn));
    slots_[id] = Parked{src, pid, vpn, std::move(cont),
                        fresh ? kNoSlot : *head};
    *head = id;
    state_[id] = SlotState{src - first_, false};
    ++parked_[src - first_];
    waiting_.push_back(id);
}

void
L2TlbStage::unindex(std::uint32_t id)
{
    const Parked &p = slots_[id];
    const Key key = Mshr<TlbEntry>::keyOf(p.pid, p.vpn);
    std::uint32_t *head = key_head_.find(key);
    std::uint32_t *link = head;
    while (link != nullptr && *link != id)
        link = *link == kNoSlot ? nullptr : &slots_[*link].next_same_key;
    barre_assert(link != nullptr, "parked slot %u missing from the index",
                 id);
    *link = p.next_same_key;
    if (*head == kNoSlot)
        key_head_.erase(key);
}

L2TlbStage::Parked
L2TlbStage::unpark(std::uint32_t id)
{
    unindex(id);
    Parked p = std::move(slots_[id]);
    --parked_[p.src - first_];
    free_.push_back(id);
    return p;
}

void
L2TlbStage::wake()
{
    // A completion freed a slot: every parked request not already in a
    // woken batch is released as one batch. It travels over the two
    // hops a lone retry takes. Released one by one, the requests'
    // events would be scheduled back to back and so fire as an
    // uninterrupted block; the batch event takes that block's place in
    // the firing order. The slot may be taken again before the batch
    // runs, by a lookup that runs in between.
    if (waiting_.empty())
        return;
    barre_assert(!mshr_.full(), "unparking with no free MSHR");
    batches_.push_back(std::move(waiting_));
    waiting_.clear();
    after(retry_interval_, [this, ticket = woken_++] {
        after(tlb_.params().lookup_latency,
              [this, ticket] { runBatch(ticket); });
    });
}

void
L2TlbStage::runBatch(std::uint64_t ticket)
{
    // Batches fire in wake order: both hops have fixed delays, and
    // events of one tag at one (when, birth) fire in schedule order.
    barre_assert(ticket == ran_++, "L2 retry batch %llu ran out of order",
                 static_cast<unsigned long long>(ticket));
    std::vector<std::uint32_t> batch = std::move(batches_.front());
    batches_.pop_front();
    // Each request re-runs the lookup step in park order, except where
    // the outcome is known without it. A request parked because its key
    // was neither resident nor in flight while the file was full. Only
    // an insert makes a key resident and only a primary allocation puts
    // it in flight, and both mark the key's parked requests ready. So
    // with the file full, a request that is not ready would miss, find
    // no entry to merge onto and park again: it re-parks where it
    // stands, with its retry counted and no lookup run. Nothing in a
    // batch completes an MSHR, so once a request takes the last free
    // slot only the ready requests run.
    for (const std::uint32_t id : batch) {
        const SlotState &st = state_[id];
        if (mshr_.full() && !st.ready) {
            ++retries_[st.requester];
            waiting_.push_back(id);
            continue;
        }
        Parked p = unpark(id);
        step(p.src, p.pid, p.vpn, std::move(p.cont));
    }
    BARRE_AUDIT_EVERY(audit_tick_, kAuditPeriod, auditParkedIndex());
}

void
L2TlbStage::auditParkedIndex() const
{
    // The park order: every woken batch, then waiting_.
    std::unordered_set<std::uint32_t> ordered;
    std::vector<std::uint64_t> counted(parked_.size(), 0);
    auto visit = [&](const std::vector<std::uint32_t> &ids) {
        for (const std::uint32_t id : ids) {
            if (id >= slots_.size() || !ordered.insert(id).second)
                barre_panic("%s: slot %u is out of range or twice in the "
                            "park order",
                            name().c_str(), id);
            ++counted[state_[id].requester];
            const Parked &p = slots_[id];
            if (!state_[id].ready &&
                (tlb_.peek(p.pid, p.vpn) ||
                 mshr_.inFlight(Mshr<TlbEntry>::keyOf(p.pid, p.vpn)))) {
                barre_panic("%s: parked request (pid %u, vpn %#llx) is "
                            "resident or in flight but not ready",
                            name().c_str(), p.pid,
                            static_cast<unsigned long long>(p.vpn));
            }
        }
    };
    for (const auto &batch : batches_)
        visit(batch);
    visit(waiting_);
    if (ordered.size() + free_.size() != slots_.size())
        barre_panic("%s: %zu parked and %zu free of %zu slots",
                    name().c_str(), ordered.size(), free_.size(),
                    slots_.size());

    std::size_t indexed = 0;
    key_head_.forEach([&](Key key, std::uint32_t head) {
        for (std::uint32_t id = head; id != kNoSlot;
             id = slots_[id].next_same_key) {
            const Parked &p = slots_[id];
            if (!ordered.count(id) ||
                Mshr<TlbEntry>::keyOf(p.pid, p.vpn) != key ||
                ++indexed > ordered.size())
                barre_panic("%s: the key index holds slot %u, which is "
                            "not parked on that key",
                            name().c_str(), id);
        }
    });
    if (indexed != ordered.size())
        barre_panic("%s: the key index holds %zu requests, the park "
                    "order %zu",
                    name().c_str(), indexed, ordered.size());

    for (std::size_t r = 0; r < parked_.size(); ++r) {
        if (parked_[r] != counted[r])
            barre_panic("%s: requester %u counts %llu parked, the park "
                        "order holds %llu",
                        name().c_str(), static_cast<unsigned>(first_ + r),
                        static_cast<unsigned long long>(parked_[r]),
                        static_cast<unsigned long long>(counted[r]));
    }
}

void
L2TlbStage::debugUnreadyAll()
{
    for (SlotState &st : state_)
        st.ready = false;
}

void
L2TlbStage::debugUnindexFirst()
{
    const auto &first = batches_.empty() ? waiting_ : batches_.front();
    barre_assert(!first.empty(), "nothing parked");
    unindex(first.front());
}

} // namespace barre
