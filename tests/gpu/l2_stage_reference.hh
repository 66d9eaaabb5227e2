/**
 * @file
 * A reference for L2TlbStage's parked requests, and a script driver that
 * runs one script through any stage with its interface.
 *
 * RefL2Stage is the full re-run batch: each MSHR completion wakes every
 * parked request, and after the retry interval and a lookup latency
 * each of them re-runs the whole lookup step in FIFO order. This batch
 * was pinned equal to per-request retries (one retry event and one
 * lookup event per parked request) by the herd tests in chiplet_test.
 * L2TlbStage skips the lookups whose outcome is known; driven by one
 * script, the two must do the same things at the same ticks.
 */

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "gpu/l2_tlb_stage.hh"

namespace barre::test
{

class RefL2Stage : public SimObject
{
  public:
    using Cont = L2TlbStage::Cont;

    RefL2Stage(EventQueue &eq, std::string name, const TlbParams &params,
               ChipletId first, std::uint32_t requesters,
               Cycles retry_interval, L2TlbStage::Launch launch)
        : SimObject(eq, std::move(name)), first_(first),
          retry_interval_(retry_interval), launch_(std::move(launch)),
          tlb_(params), mshr_(params.mshrs), retries_(requesters)
    {}

    Tlb &tlb() { return tlb_; }
    const Counter &mshrRetries(ChipletId src) const
    {
        return retries_[src - first_];
    }
    std::size_t mshrOccupancy() const { return mshr_.occupancy(); }
    /** Free MSHR slots as each batch started, in run order. */
    const std::vector<std::size_t> &batchFreeSlots() const
    {
        return batch_free_;
    }

    void
    lookup(ChipletId src, ProcessId pid, Vpn vpn, Cont cont)
    {
        after(tlb_.params().lookup_latency,
              [this, src, pid, vpn, cont = std::move(cont)]() mutable {
                  step(src, pid, vpn, std::move(cont));
              });
    }

    void
    fill(ChipletId, const AtsResponse &resp)
    {
        const TlbEntry te = install(resp);
        mshr_.complete(Mshr<TlbEntry>::keyOf(resp.pid, resp.vpn), te);
        if (parked_.empty())
            return;
        std::vector<Parked> batch;
        batch.swap(parked_);
        after(retry_interval_, [this, batch = std::move(batch)]() mutable {
            after(tlb_.params().lookup_latency,
                  [this, batch = std::move(batch)]() mutable {
                      batch_free_.push_back(mshr_.capacity() -
                                            mshr_.occupancy());
                      for (Parked &p : batch)
                          step(p.src, p.pid, p.vpn, std::move(p.cont));
                  });
        });
    }

    void unsolicitedFill(ChipletId, const AtsResponse &resp)
    {
        install(resp);
    }

  private:
    struct Parked
    {
        ChipletId src;
        ProcessId pid;
        Vpn vpn;
        Cont cont;
    };

    void
    step(ChipletId src, ProcessId pid, Vpn vpn, Cont cont)
    {
        if (auto te = tlb_.lookup(pid, vpn)) {
            cont(*te);
            return;
        }
        const auto key = Mshr<TlbEntry>::keyOf(pid, vpn);
        if (!mshr_.inFlight(key) && mshr_.full()) {
            ++retries_[src - first_];
            parked_.push_back(Parked{src, pid, vpn, std::move(cont)});
            return;
        }
        if (mshr_.allocate(key, std::move(cont)) ==
            Mshr<TlbEntry>::Outcome::primary)
            launch_(src, pid, vpn);
    }

    TlbEntry
    install(const AtsResponse &resp)
    {
        TlbEntry te;
        te.pid = resp.pid;
        te.vpn = resp.vpn;
        te.pfn = resp.pfn;
        te.valid = true;
        tlb_.insert(te);
        return te;
    }

    ChipletId first_;
    Cycles retry_interval_;
    L2TlbStage::Launch launch_;
    Tlb tlb_;
    Mshr<TlbEntry> mshr_;
    std::vector<Parked> parked_;
    std::vector<Counter> retries_;
    std::vector<std::size_t> batch_free_;
};

/** One scripted action at tick `at`. */
struct StageOp
{
    enum class Kind
    {
        lookup,          ///< a demand lookup from requester src
        unsolicited,     ///< an unsolicited fill (a multicast push)
        invalidate_asid, ///< drop every entry of pid from the TLB
    };
    Kind kind;
    Tick at;
    ChipletId src;
    ProcessId pid;
    Vpn vpn;
};

/** A stage's shape and the script to drive it with. */
struct StageScript
{
    TlbParams tlb{16, 4, 10, 2, 0};
    std::uint32_t requesters = 1;
    Cycles retry_interval = 20;
    std::vector<StageOp> ops;
    /**
     * The n-th primary miss is filled fill_delays[n % size] cycles after
     * it launches.
     */
    std::vector<Cycles> fill_delays{100};
};

/** What a stage did under a script; equal traces mean equal behaviour. */
struct StageTrace
{
    /** A continuation that ran: its lookup op, when, with what. */
    struct Fired
    {
        std::uint64_t op;
        Tick tick;
        Pfn pfn;
        bool operator==(const Fired &) const = default;
    };
    std::vector<Fired> fired;           ///< in firing order
    std::vector<std::uint64_t> occupancy; ///< MSHR slots used, per op
    std::vector<std::uint64_t> retries; ///< per requester
    /**
     * The TLB's entries, set by set in LRU order: the order in which
     * filling every way of each set with new entries evicts them.
     */
    std::vector<std::pair<ProcessId, Vpn>> lru;

    bool operator==(const StageTrace &) const = default;

    /** FNV-1a over everything above. */
    std::uint64_t
    digest() const
    {
        std::uint64_t h = 0xcbf29ce484222325ull;
        auto add = [&h](std::uint64_t v) {
            for (int i = 0; i < 8; ++i) {
                h ^= (v >> (8 * i)) & 0xff;
                h *= 0x100000001b3ull;
            }
        };
        for (const Fired &f : fired) {
            add(f.op);
            add(f.tick);
            add(f.pfn);
        }
        for (std::uint64_t v : occupancy)
            add(v);
        for (std::uint64_t v : retries)
            add(v);
        for (const auto &[pid, vpn] : lru) {
            add(pid);
            add(vpn);
        }
        return h;
    }
};

/** The PFN every fill and push gives (pid, vpn). */
inline Pfn
scriptPfn(ProcessId pid, Vpn vpn)
{
    return (Pfn{pid} << 20) + vpn * 7 + 3;
}

inline AtsResponse
scriptResponse(ProcessId pid, Vpn vpn)
{
    AtsResponse r;
    r.pid = pid;
    r.vpn = vpn;
    r.pfn = scriptPfn(pid, vpn);
    return r;
}

/** A hook that does nothing. */
struct NoHook
{
    template <typename S>
    void
    operator()(S &) const
    {}
};

/**
 * Run @p script through a fresh @p Stage. @p each_op runs with the
 * stage after every script op, @p at_end once the queue drains.
 */
template <typename Stage, typename EachOp = NoHook, typename AtEnd = NoHook>
StageTrace
runStageScript(const StageScript &script, EachOp each_op = {},
               AtEnd at_end = {})
{
    EventQueue eq;
    StageTrace t;
    std::uint64_t launched = 0;
    Stage *stage_ptr = nullptr;
    Stage stage(eq, "l2", script.tlb, 0, script.requesters,
                script.retry_interval,
                [&](ChipletId src, ProcessId pid, Vpn vpn) {
                    const Cycles d = script.fill_delays[launched++ %
                                                        script.fill_delays
                                                            .size()];
                    eq.scheduleAfter(d, [&, src, pid, vpn] {
                        stage_ptr->fill(src, scriptResponse(pid, vpn));
                    });
                });
    stage_ptr = &stage;
    for (std::size_t i = 0; i < script.ops.size(); ++i) {
        const StageOp op = script.ops[i];
        eq.schedule(op.at, [&, i, op] {
            t.occupancy.push_back(stage.mshrOccupancy());
            switch (op.kind) {
              case StageOp::Kind::lookup:
                stage.lookup(op.src, op.pid, op.vpn,
                             [&t, &eq, i](const TlbEntry &te) {
                                 t.fired.push_back({i, eq.now(), te.pfn});
                             });
                break;
              case StageOp::Kind::unsolicited:
                stage.unsolicitedFill(op.src,
                                      scriptResponse(op.pid, op.vpn));
                break;
              case StageOp::Kind::invalidate_asid:
                stage.tlb().invalidateAsid(op.pid);
                break;
            }
            each_op(stage);
        });
    }
    eq.run();
    at_end(stage);

    for (std::uint32_t r = 0; r < script.requesters; ++r)
        t.retries.push_back(stage.mshrRetries(r).value());
    Tlb &tlb = stage.tlb();
    tlb.setEvictListener([&t](const TlbEntry &e) {
        t.lru.emplace_back(e.pid, e.vpn);
    });
    const std::uint32_t sets = script.tlb.entries / script.tlb.ways;
    for (std::uint32_t s = 0; s < sets; ++s) {
        for (std::uint32_t w = 0; w < script.tlb.ways; ++w) {
            TlbEntry e;
            e.pid = 0; // no script op uses pid 0
            e.vpn = s + Vpn{sets} * (1000 + w);
            e.pfn = 1;
            e.valid = true;
            tlb.insert(e);
        }
    }
    return t;
}

} // namespace barre::test
