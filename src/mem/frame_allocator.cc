#include "mem/frame_allocator.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace barre
{

FrameAllocator::FrameAllocator(std::uint64_t num_frames)
    : num_frames_(num_frames), free_count_(num_frames)
{
    barre_assert(num_frames > 0, "empty frame space");
    free_bits_.assign(wordCount(), ~std::uint64_t{0});
    // Clear the bits past the end of the frame space.
    std::uint64_t tail = num_frames_ % word_bits;
    if (tail != 0)
        free_bits_.back() = (std::uint64_t{1} << tail) - 1;
}

bool
FrameAllocator::isFree(LocalPfn pfn) const
{
    barre_assert(pfn < num_frames_, "PFN %llu out of range",
                 (unsigned long long)pfn);
    return (free_bits_[pfn / word_bits] >> (pfn % word_bits)) & 1;
}

bool
FrameAllocator::allocate(LocalPfn pfn)
{
    if (!isFree(pfn))
        return false;
    free_bits_[pfn / word_bits] &= ~(std::uint64_t{1} << (pfn % word_bits));
    --free_count_;
    if (pfn == low_water_)
        ++low_water_;
    return true;
}

std::optional<LocalPfn>
FrameAllocator::allocateAny()
{
    if (free_count_ == 0)
        return std::nullopt;
    LocalPfn pfn = firstFree();
    if (pfn >= num_frames_)
        barre_panic("free_count_ nonzero but no free bit found");
    allocate(pfn);
    return pfn;
}

bool
FrameAllocator::release(LocalPfn pfn)
{
    if (isFree(pfn))
        return false;
    free_bits_[pfn / word_bits] |= std::uint64_t{1} << (pfn % word_bits);
    ++free_count_;
    low_water_ = std::min(low_water_, pfn);
    return true;
}

LocalPfn
FrameAllocator::firstFree() const
{
    std::uint64_t w = low_water_ / word_bits;
    if (w >= wordCount())
        return low_water_;
    std::uint64_t bits =
        free_bits_[w] & (~std::uint64_t{0} << (low_water_ % word_bits));
    while (bits == 0) {
        if (++w == wordCount()) {
            low_water_ = num_frames_;
            return low_water_;
        }
        bits = free_bits_[w];
    }
    low_water_ =
        w * word_bits + static_cast<std::uint64_t>(std::countr_zero(bits));
    return low_water_;
}

std::optional<LocalPfn>
FrameAllocator::findCommonFreeRun(std::span<const FrameAllocator *> peers,
                                  std::uint64_t run_length,
                                  LocalPfn start_hint)
{
    barre_assert(!peers.empty(), "no allocators to intersect");
    barre_assert(run_length >= 1, "empty run requested");

    // No frame below a peer's low-water mark is free in that peer, so
    // no common run starts below the highest mark.
    std::uint64_t frames = peers.front()->numFrames();
    LocalPfn start = start_hint;
    for (const auto *p : peers) {
        frames = std::min(frames, p->numFrames());
        start = std::max(start, p->firstFree());
    }
    if (frames < run_length || start >= frames)
        return std::nullopt;

    const std::uint64_t first_word = start / word_bits;
    const std::uint64_t words = (frames + word_bits - 1) / word_bits;
    // Length of the common-free run that ends at the current bit,
    // carried from word to word.
    std::uint64_t run = 0;
    for (std::uint64_t w = first_word; w < words; ++w) {
        std::uint64_t bits = ~std::uint64_t{0};
        for (const auto *p : peers)
            bits &= p->free_bits_[w];
        // The smallest peer keeps the bits past its last frame clear,
        // so only the first word needs a mask.
        if (w == first_word)
            bits &= ~std::uint64_t{0} << (start % word_bits);

        // Walk the word's runs of set bits, lowest first.
        int pos = 0;
        while (pos < word_bits) {
            std::uint64_t rest = bits >> pos;
            if (rest == 0) {
                run = 0;
                break;
            }
            const int gap = std::countr_zero(rest);
            if (gap != 0) {
                run = 0;
                pos += gap;
                rest >>= gap;
            }
            const int ones = std::countr_one(rest);
            run += static_cast<std::uint64_t>(ones);
            pos += ones;
            if (run >= run_length)
                return w * word_bits + static_cast<std::uint64_t>(pos) - run;
        }
    }
    return std::nullopt;
}

std::uint64_t
FrameAllocator::injectFragmentation(double fraction, Rng &rng)
{
    std::uint64_t claimed = 0;
    for (LocalPfn pfn = 0; pfn < num_frames_; ++pfn) {
        if (isFree(pfn) && rng.chance(fraction)) {
            allocate(pfn);
            ++claimed;
        }
    }
    return claimed;
}

} // namespace barre
