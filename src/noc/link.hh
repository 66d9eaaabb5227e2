/**
 * @file
 * A unidirectional point-to-point link with bandwidth and latency.
 *
 * Messages serialize onto the wire in FIFO order at the configured
 * bytes/cycle, then experience the propagation latency. This is the
 * building block for the intra-MCM mesh and the PCIe connection.
 */

#pragma once

#include <cstdint>

#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace barre
{

struct LinkParams
{
    double bytes_per_cycle = 64.0;
    Cycles latency = 32;

    bool operator==(const LinkParams &) const = default;
};

// domain-owner:shared — the primitive message path; sendTo/sendShared
// deliver under the destination/owner tag by construction.
class Link : public SimObject, public ArbHook
{
  public:
    Link(EventQueue &eq, std::string name, const LinkParams &p)
        : SimObject(eq, std::move(name)), params_(p)
    {}

    /**
     * Send @p bytes to the component sequenced as tag @p dst. The link
     * is owned by the sender (only the sending tag contends for the
     * wire), so arbitration resolves inline; the delivery executes as
     * @p dst and is staged across a domain boundary when needed.
     * @return the delivery tick.
     */
    Tick
    sendTo(SeqTag dst, std::uint64_t bytes, EventQueue::Callback deliver)
    {
        Tick arrive = arbitrate(curTick(), bytes);
        eventQueue().scheduleCross(dst, arrive, std::move(deliver));
        return arrive;
    }

    /**
     * Send @p bytes over a wire *shared* by senders from multiple
     * sequencing tags and owned by tag @p owner (the PCIe upstream).
     * Wire arbitration must then happen in deterministic global order,
     * which partitioned multi-domain mode can only establish at the
     * epoch barrier — so the send may be staged.
     * @return the delivery tick, or 0 when staged.
     */
    Tick
    sendShared(SeqTag owner, std::uint64_t bytes,
               EventQueue::Callback deliver)
    {
        return eventQueue().stageArb(owner, *this, bytes,
                                     std::move(deliver));
    }

    /**
     * ArbHook: occupy the wire for a message of @p bytes sent at
     * @p send_tick and return its delivery tick. This is the single
     * code path for wire state and link stats, whether invoked inline
     * (serial / owner-side sends) or replayed at an epoch barrier.
     */
    Tick
    arbitrate(Tick send_tick, std::uint64_t bytes) override
    {
        ++messages_;
        bytes_sent_ += bytes;
        Tick ser = serializationCycles(bytes, params_.bytes_per_cycle);
        Tick start = std::max(send_tick, wire_free_);
        wire_free_ = start + ser;
        Tick arrive = wire_free_ + params_.latency;
        return arrive;
    }

    const Counter &messages() const { return messages_; }
    const Counter &bytesSent() const { return bytes_sent_; }
    const LinkParams &params() const { return params_; }

  private:
    LinkParams params_;
    Tick wire_free_ = 0;
    Counter messages_;
    Counter bytes_sent_;
};

} // namespace barre

