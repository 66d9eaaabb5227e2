/**
 * @file
 * Compute-unit model: a warp-level memory-instruction generator.
 *
 * Each CU executes the access streams of the CTAs scheduled onto it,
 * each launched stream as one job. A job sustains `mlp` outstanding
 * accesses (the latency hiding of resident warps); each slot issues
 * its next access `issue_gap` cycles after the previous one completes
 * (amortized compute between memory instructions). The simulation's
 * runtime metric is the tick when every CU drains.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "gpu/chiplet.hh"
#include "mem/types.hh"
#include "sim/logging.hh"
#include "sim/sim_object.hh"

namespace barre
{

/** One warp-level memory instruction. */
struct AccessDesc
{
    Addr vaddr = 0;
    ProcessId pid = 0;

    bool operator==(const AccessDesc &) const = default;
};

struct CuParams
{
    /** Outstanding accesses a CU sustains (warp-level parallelism). */
    std::uint32_t mlp = 4;
    /** Cycles between an access completing and the slot's next issue. */
    Cycles issue_gap = 4;

    bool operator==(const CuParams &) const = default;
};

// domain-owner:chiplet — a CU issues only into its own chiplet.
class Cu : public SimObject
{
  public:
    Cu(EventQueue &eq, std::string name, Chiplet &chiplet, CuId id,
       const CuParams &params)
        : SimObject(eq, std::move(name)), chiplet_(chiplet), id_(id),
          params_(params)
    {}

    /** Append CTA access streams. Call before start(). */
    void
    addStream(std::vector<AccessDesc> accesses)
    {
        streamed_ += accesses.size();
        if (stream_.empty())
            stream_ = std::move(accesses);
        else
            stream_.insert(stream_.end(), accesses.begin(),
                           accesses.end());
    }

    /**
     * Launch the addStream() accesses as one job; @p on_done fires
     * when they drain (at once if there are none).
     */
    void
    start(EventQueue::Callback on_done)
    {
        if (stream_.empty()) {
            on_done();
            return;
        }
        launchJob(std::move(stream_), std::move(on_done));
    }

    /**
     * Run one access stream as an independent job, arriving at any
     * tick (a CU's preloaded share via start(), or its share of a
     * multi-tenant scenario's arrival). Jobs issue concurrently with
     * each other (each gets its own mlp slots — the CU models enough
     * resident warps); @p on_done fires when this job's stream drains.
     */
    void
    launchJob(std::vector<AccessDesc> accesses,
              EventQueue::Callback on_done)
    {
        barre_assert(!accesses.empty(), "launching an empty job");
        auto job = std::make_unique<Job>();
        job->accesses = std::move(accesses);
        job->on_done = std::move(on_done);
        Job *j = job.get();
        jobs_.push_back(std::move(job));
        const std::uint32_t slots = std::min<std::uint32_t>(
            params_.mlp,
            static_cast<std::uint32_t>(j->accesses.size()));
        j->active_slots = slots;
        for (std::uint32_t s = 0; s < slots; ++s)
            issueJob(j);
    }

    std::uint64_t accessesIssued() const { return issued_; }
    /** Accesses given by addStream(), launched or not. */
    std::uint64_t streamLength() const { return streamed_; }

  private:
    /** One launched access stream (stable address). */
    struct Job
    {
        std::vector<AccessDesc> accesses;
        std::size_t next = 0;
        std::uint32_t active_slots = 0;
        EventQueue::Callback on_done;
    };

    void
    issueJob(Job *j)
    {
        if (j->next >= j->accesses.size()) {
            if (--j->active_slots == 0) {
                // Keep the Job shell (completion accounting) but drop
                // the drained stream's storage.
                j->accesses.clear();
                j->accesses.shrink_to_fit();
                j->on_done();
            }
            return;
        }
        const AccessDesc &a = j->accesses[j->next++];
        ++issued_;
        chiplet_.access(id_, a.pid, a.vaddr, [this, j]() {
            after(params_.issue_gap, [this, j]() { issueJob(j); });
        });
    }

    Chiplet &chiplet_;
    CuId id_;
    CuParams params_;
    /** Accesses added but not yet started. */
    std::vector<AccessDesc> stream_;
    std::uint64_t streamed_ = 0;
    std::uint64_t issued_ = 0;
    std::vector<std::unique_ptr<Job>> jobs_;
};

} // namespace barre

