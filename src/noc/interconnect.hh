/**
 * @file
 * Intra-MCM chiplet interconnect.
 *
 * Table II: 768 GB/s mesh, 32-cycle latency. Modeled as one egress link
 * per chiplet (capturing per-chiplet injection-bandwidth contention) with
 * uniform hop latency. Self-sends are rejected; callers must special-case
 * local operations.
 */

#pragma once

#include <memory>
#include <vector>

#include "noc/link.hh"
#include "sim/logging.hh"

namespace barre
{

struct InterconnectParams
{
    /** Per-chiplet egress bandwidth: 768 GB/s at 1 GHz = 768 B/cycle. */
    double bytes_per_cycle = 768.0;
    Cycles latency = 32;

    bool operator==(const InterconnectParams &) const = default;
};

// domain-owner:shared — the sanctioned cross-chiplet message path;
// send(src, dst) re-executes the callback under dst's tag.
class Interconnect : public SimObject
{
  public:
    Interconnect(EventQueue &eq, std::string name, std::uint32_t chiplets,
                 const InterconnectParams &p = {})
        : SimObject(eq, std::move(name))
    {
        LinkParams lp{p.bytes_per_cycle, p.latency};
        for (std::uint32_t i = 0; i < chiplets; ++i) {
            egress_.push_back(std::make_unique<Link>(
                eq, this->name() + ".egress" + std::to_string(i), lp));
        }
    }

    /**
     * Send @p bytes from @p src to @p dst; @p deliver fires at arrival
     * in chiplet @p dst 's sequencing context. The egress link is owned
     * by @p src (no other sender contends for it), so arbitration is
     * inline; partitioned mode stages the delivery across the domain
     * boundary when src and dst live in different domains.
     */
    Tick
    send(ChipletId src, ChipletId dst, std::uint64_t bytes,
         EventQueue::Callback deliver)
    {
        barre_assert(src < egress_.size() && dst < egress_.size(),
                     "chiplet id out of range");
        barre_assert(src != dst, "self-send over the interconnect");
        return egress_[src]->sendTo(chipletTag(dst), bytes,
                                    std::move(deliver));
    }

    void
    regStats(StatRegistry &stats) const
    {
        stats.add(name() + ".bytes", [this] { return sum(&Link::bytesSent); });
        stats.add(name() + ".messages",
                  [this] { return sum(&Link::messages); });
    }

  private:
    std::uint64_t
    sum(const Counter &(Link::*stat)() const) const
    {
        std::uint64_t n = 0;
        for (const auto &l : egress_)
            n += ((*l).*stat)().value();
        return n;
    }

    std::vector<std::unique_ptr<Link>> egress_;
};

} // namespace barre

