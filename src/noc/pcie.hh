/**
 * @file
 * The CPU<->MCM-GPU PCIe connection carrying ATS traffic.
 *
 * Table II: PCIe Gen4 x16 (~32 GB/s per direction), 150-cycle latency.
 * Two independent directions so ATS requests and responses contend only
 * with same-direction traffic.
 */

#pragma once

#include <memory>

#include "noc/link.hh"

namespace barre
{

struct PcieParams
{
    /** 32 GB/s at 1 GHz core clock = 32 B/cycle per direction. */
    double bytes_per_cycle = 32.0;
    Cycles latency = 150;

    bool operator==(const PcieParams &) const = default;
};

// domain-owner:shared — the chiplet<->host message path (toHost lands
// at the host tag, toDevice at the target chiplet's tag).
class Pcie : public SimObject
{
  public:
    Pcie(EventQueue &eq, std::string name, const PcieParams &p = {})
        : SimObject(eq, std::move(name)),
          upstream_(eq, this->name() + ".up",
                    LinkParams{p.bytes_per_cycle, p.latency}),
          downstream_(eq, this->name() + ".down",
                      LinkParams{p.bytes_per_cycle, p.latency})
    {}

    /**
     * GPU -> IOMMU direction (ATS requests). The upstream wire is
     * shared by every chiplet but delivers into the host, so in
     * partitioned mode arbitration is replayed in global key order at
     * the epoch barrier (see Link::sendShared).
     * @return the delivery tick, or 0 when staged.
     */
    Tick
    toHost(std::uint64_t bytes, EventQueue::Callback deliver)
    {
        return upstream_.sendShared(kHostTag, bytes, std::move(deliver));
    }

    /**
     * IOMMU -> GPU direction (ATS responses), delivered to the chiplet
     * sequenced as @p dst. Only the host sends downstream, so
     * arbitration happens inline at send time.
     * @return the delivery tick.
     */
    Tick
    toDevice(SeqTag dst, std::uint64_t bytes, EventQueue::Callback deliver)
    {
        return downstream_.sendTo(dst, bytes, std::move(deliver));
    }

    void
    regStats(StatRegistry &stats) const
    {
        stats.add(name() + ".up_bytes", upstream_.bytesSent());
        stats.add(name() + ".down_bytes", downstream_.bytesSent());
    }

    const Link &upstream() const { return upstream_; }
    const Link &downstream() const { return downstream_; }

  private:
    Link upstream_;
    Link downstream_;
};

} // namespace barre

