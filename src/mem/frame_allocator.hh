/**
 * @file
 * Per-chiplet physical frame allocator.
 *
 * A bitmap allocator over one chiplet's local frame space. Besides plain
 * allocation it supports the queries Barre's driver modification needs
 * (paper §IV-G):
 *  - is a *specific* frame free (so the same local PFN can be claimed on
 *    every sharer chiplet), and
 *  - scan for frames / contiguous frame runs that are *commonly* free
 *    across a set of allocators (coalescing-group creation and
 *    contiguity-aware expansion).
 *
 * Fragmentation injection pre-claims a random subset of frames so the
 * common-availability search degrades the way real, aged memory would.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "mem/types.hh"
#include "sim/rng.hh"

namespace barre
{

// domain-owner:host — only the driver allocates/frees frames.
class FrameAllocator
{
  public:
    explicit FrameAllocator(std::uint64_t num_frames);

    std::uint64_t numFrames() const { return num_frames_; }
    std::uint64_t freeFrames() const { return free_count_; }

    bool isFree(LocalPfn pfn) const;

    /** Claim a specific frame. @return false if already allocated. */
    bool allocate(LocalPfn pfn);

    /** Claim any free frame, lowest-index first. */
    std::optional<LocalPfn> allocateAny();

    /** Release a frame. @return false if it was not allocated. */
    bool release(LocalPfn pfn);

    /**
     * The low-water mark: no frame below it is free. release() lowers
     * it; allocation and the searches only raise it, so it may lag
     * behind the lowest free frame until the next search.
     */
    LocalPfn lowWaterMark() const { return low_water_; }

    /**
     * Find the lowest start >= @p start_hint of a run of @p run_length
     * consecutive frames free in every allocator of @p peers.
     *
     * Works a 64-frame word at a time: the peers' bitmaps are ANDed per
     * word from the highest peer low-water mark, and a run carries
     * across word boundaries. The result equals a frame-by-frame
     * first-fit scan.
     */
    static std::optional<LocalPfn>
    findCommonFreeRun(std::span<const FrameAllocator *> peers,
                      std::uint64_t run_length, LocalPfn start_hint = 0);

    /**
     * Randomly pre-claim frames with probability @p fraction each, to
     * model an aged/fragmented physical memory.
     * @return number of frames claimed.
     */
    std::uint64_t injectFragmentation(double fraction, Rng &rng);

  private:
    static constexpr int word_bits = 64;

    std::uint64_t wordCount() const { return (num_frames_ + 63) / 64; }

    /**
     * Raise the low-water mark to the lowest free frame and return it
     * (numFrames() when every frame is allocated).
     */
    LocalPfn firstFree() const;

    std::uint64_t num_frames_;
    std::uint64_t free_count_;
    /** Bit set = frame free. */
    std::vector<std::uint64_t> free_bits_;
    /**
     * See lowWaterMark(). Mutable so the const searches can raise it;
     * only the driver, on the host domain, touches an allocator.
     */
    mutable LocalPfn low_water_ = 0;
};

} // namespace barre

