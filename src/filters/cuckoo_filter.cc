#include "filters/cuckoo_filter.hh"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstring>
#include <utility>

#include "sim/logging.hh"

namespace barre
{

namespace
{

/**
 * @p p, hidden from the optimizer. A kick indexes a row pointer (the
 * slot table offset by the victim way, drawn off the chain) with the
 * carried bucket base; without this the compiler folds the way into
 * the base and puts that add on the chain.
 */
std::uint32_t *
opaque(std::uint32_t *p)
{
    asm("" : "+r"(p));
    return p;
}

/**
 * The low half of the 32-bit word at @p w, read by a zero-extending
 * 16-bit load of its own, so the kick chain is that load plus one XOR.
 */
std::uint32_t
lowHalfAt(const std::uint32_t *w)
{
    constexpr std::size_t offset =
        std::endian::native == std::endian::little ? 0 : 2;
    std::uint16_t half;
    std::memcpy(&half, reinterpret_cast<const unsigned char *>(w) + offset,
                sizeof half);
    return half;
}

} // namespace

CuckooFilter::CuckooFilter(const CuckooFilterParams &p)
    : params_(p), kick_rng_(p.salt ^ 0xcafef00dull)
{
    barre_assert(std::has_single_bit(params_.rows),
                 "cuckoo filter rows must be a power of two");
    barre_assert(params_.ways >= 1, "need at least one way");
    barre_assert(params_.fingerprint_bits >= 1 &&
                 params_.fingerprint_bits <= 16,
                 "fingerprint must be 1..16 bits");
    if (params_.ways > kMaxWays)
        barre_fatal("cuckoo filter with %u ways: at most %u are supported",
                    params_.ways, kMaxWays);
    row_mask_ = params_.rows - 1;
    // The kick's victim draw: ways == 1 keeps below() (shift 64).
    if (params_.ways > 1 && std::has_single_bit(params_.ways))
        victim_shift_ = 64 - std::countr_zero(params_.ways);
    // Buckets sit a power-of-two number of slots apart, so a bucket's
    // base is its index shifted and the XOR of two bases is the XOR of
    // their indices shifted; ways past `ways` are never used. With rows
    // a power of two, the padded table exceeds kMaxSlots exactly when
    // rows x ways does.
    stride_bits_ = std::countr_zero(std::bit_ceil(params_.ways));
    const std::uint64_t padded = std::uint64_t{params_.rows} << stride_bits_;
    if (padded > kMaxSlots)
        barre_fatal("cuckoo filter of %u rows x %u ways: at most %llu "
                    "slots are supported",
                    params_.rows, params_.ways,
                    (unsigned long long)kMaxSlots);
    word_of_.resize(std::size_t{1} << params_.fingerprint_bits);
    for (std::size_t fp = 1; fp < word_of_.size(); ++fp) {
        const auto alt =
            static_cast<Word>(mixHash(fp, params_.salt)) & row_mask_;
        word_of_[fp] =
            static_cast<Word>(fp) << kFpShift | alt << stride_bits_;
    }
    slots_.assign(padded, Word{0});
    free_ways_.assign(params_.rows,
                      static_cast<std::uint8_t>(params_.ways));
}

CuckooFilter::Fingerprint
CuckooFilter::fingerprintOf(std::uint64_t item) const
{
    std::uint64_t h = mixHash(item, params_.salt + 1);
    auto fp = static_cast<Fingerprint>(
        h & ((std::uint64_t{1} << params_.fingerprint_bits) - 1));
    // Zero is the empty marker; remap to 1 (slightly skews fp 1; fine).
    return fp == empty_fp ? Fingerprint{1} : fp;
}

std::uint32_t
CuckooFilter::baseOf(std::uint64_t item) const
{
    return (static_cast<std::uint32_t>(mixHash(item, params_.salt)) &
            row_mask_)
           << stride_bits_;
}

void
CuckooFilter::debugCorruptSlot(std::uint32_t bucket, std::uint32_t way,
                               std::uint16_t fp)
{
    Word &w = slots_[(std::size_t{bucket} << stride_bits_) + way];
    w = fp == empty_fp ? 0 : Word{fp} << kFpShift | (w & kBaseXorMask);
}

std::uint32_t
CuckooFilter::findWay(std::uint32_t base, Fingerprint fp) const
{
    // Scan from the last way down so the select keeps the first match.
    const Word *bucket = &slots_[base];
    std::uint32_t way = params_.ways;
    for (std::uint32_t w = params_.ways; w-- > 0;)
        way = fpOf(bucket[w]) == fp ? w : way;
    return way;
}

bool
CuckooFilter::tryPlace(std::uint32_t base, Word w)
{
    std::uint8_t &free = free_ways_[base >> stride_bits_];
    if (free == 0)
        return false;
    slots_[base + findWay(base, empty_fp)] = w;
    --free;
    ++occupied_;
    return true;
}

bool
CuckooFilter::removeFrom(std::uint32_t base, Fingerprint fp)
{
    std::uint32_t way = findWay(base, fp);
    if (way == params_.ways)
        return false;
    slots_[base + way] = 0;
    ++free_ways_[base >> stride_bits_];
    --occupied_;
    return true;
}

bool
CuckooFilter::insert(std::uint64_t item)
{
    Word carry = word_of_[fingerprintOf(item)];
    std::uint32_t b1 = baseOf(item);
    std::uint32_t b2 = b1 ^ (carry & kBaseXorMask);

    if (tryPlace(b1, carry) || tryPlace(b2, carry)) {
        BARRE_AUDIT(shadowInsert(item));
        BARRE_AUDIT_EVERY(audit_tick_, kAuditPeriod,
                          auditNoFalseNegatives());
        return true;
    }

    // Both buckets full: relocate a victim, alternating buckets. Every
    // bucket the chain visits is full, so each swap trades the carried
    // word for a resident one and only the free count of the bucket it
    // ends on can be non-zero. The chain carries the bucket base, so
    // each step depends on one load (the resident's base XOR) and one
    // XOR. It runs on locals (a copy of the RNG, the geometry), so the
    // slot stores cannot force their reload.
    static_assert(kBaseXorMask == 0xffff, "lowHalfAt reads the base XOR");
    Rng rng = kick_rng_;
    Word *const slots = slots_.data();
    const std::uint8_t *const free_ways = free_ways_.data();
    const std::uint32_t stride = stride_bits_;
    const std::uint32_t victim_shift = victim_shift_;
    const std::uint32_t ways = params_.ways;
    const std::uint32_t max_kicks = params_.max_kicks;
    std::size_t base = (rng.next() & 1) ? b2 : b1;
    std::uint32_t kick = 0;
    for (; kick < max_kicks; ++kick) {
        // (next() * 2^k) >> 64 == next() >> (64 - k): Rng::below's
        // draw without the wide multiply.
        const auto way =
            victim_shift != 0
                ? static_cast<std::uint32_t>(rng.next() >> victim_shift)
                : static_cast<std::uint32_t>(rng.below(ways));
        Word *const slot = opaque(slots + way) + base;
        const std::uint32_t base_xor = lowHalfAt(slot);
        std::swap(carry, *slot);
        base ^= base_xor;
        if (free_ways[base >> stride] != 0)
            break;
    }
    kick_rng_ = rng;
    if (kick < max_kicks) {
        tryPlace(static_cast<std::uint32_t>(base), carry);
        BARRE_AUDIT(shadowInsert(item));
        BARRE_AUDIT_EVERY(audit_tick_, kAuditPeriod,
                          auditNoFalseNegatives());
        return true;
    }
    // Filter too full; the carried fingerprint is dropped. This makes
    // the failure lossy (a prior item may now miss), matching hardware
    // filters that bound insertion work. Callers treat this as an
    // unfortunate-but-safe event (filters are hints, verified at the TLB).
    // With a kick budget the new item's fingerprint entered the table
    // on the first swap and the dropped one is whatever the chain
    // carried last (which may be that same fingerprint, kicked again);
    // at max_kicks == 0 nothing was swapped and the dropped fingerprint
    // is the new item's own. Either way any shadow item sharing it may
    // be the loser, so all of them leave the audit's tracking set.
    ++lossy_;
    BARRE_AUDIT(shadowInsert(item));
    BARRE_AUDIT(shadowPurgeFingerprint(fpOf(carry)));
    return false;
}

bool
CuckooFilter::contains(std::uint64_t item) const
{
    Fingerprint fp = fingerprintOf(item);
    std::uint32_t b1 = baseOf(item);
    std::uint32_t b2 = b1 ^ (word_of_[fp] & kBaseXorMask);
    return findWay(b1, fp) != params_.ways ||
           findWay(b2, fp) != params_.ways;
}

bool
CuckooFilter::erase(std::uint64_t item)
{
    Fingerprint fp = fingerprintOf(item);
    std::uint32_t b1 = baseOf(item);
    bool removed = removeFrom(b1, fp) ||
                   removeFrom(b1 ^ (word_of_[fp] & kBaseXorMask), fp);
    if (removed) {
        BARRE_AUDIT(shadowErase(item));
        BARRE_AUDIT_EVERY(audit_tick_, kAuditPeriod,
                          auditNoFalseNegatives());
    }
    return removed;
}

void
CuckooFilter::clear()
{
    std::fill(slots_.begin(), slots_.end(), Word{0});
    std::fill(free_ways_.begin(), free_ways_.end(),
              static_cast<std::uint8_t>(params_.ways));
    occupied_ = 0;
    lossy_ = 0;
    shadow_.clear();
}

void
CuckooFilter::auditNoFalseNegatives() const
{
    std::uint64_t filled = 0;
    for (std::uint32_t b = 0; b < params_.rows; ++b) {
        std::uint32_t empty = 0;
        for (std::uint32_t w = 0; w < params_.ways; ++w) {
            const Word s = slots_[(std::size_t{b} << stride_bits_) + w];
            barre_assert(fpOf(s) < word_of_.size(),
                         "cuckoo slot (%u, %u) holds fingerprint %u, "
                         "wider than %u bits",
                         b, w, unsigned{fpOf(s)},
                         params_.fingerprint_bits);
            const Word want = word_of_[fpOf(s)];
            barre_assert(s == want,
                         "cuckoo slot (%u, %u) holds alt XOR %u, its "
                         "fingerprint %u needs %u",
                         b, w, (s & kBaseXorMask) >> stride_bits_,
                         unsigned{fpOf(s)},
                         (want & kBaseXorMask) >> stride_bits_);
            empty += fpOf(s) == empty_fp;
        }
        barre_assert(free_ways_[b] == empty,
                     "cuckoo bucket %u free count %u != %u empty ways",
                     b, unsigned{free_ways_[b]}, empty);
        filled += params_.ways - empty;
    }
    barre_assert(filled == occupied_,
                 "cuckoo occupancy counter %llu != %llu filled slots",
                 (unsigned long long)occupied_,
                 (unsigned long long)filled);
    for (const auto &same_fp : shadow_) {
        for (std::uint64_t item : same_fp) {
            barre_assert(contains(item),
                         "cuckoo filter lost item %llx: inserted "
                         "fingerprint not locatable in either bucket",
                         (unsigned long long)item);
        }
    }
}

void
CuckooFilter::shadowInsert(std::uint64_t item)
{
    if (shadow_.empty())
        shadow_.resize(word_of_.size());
    shadow_[fingerprintOf(item)].push_back(item);
}

void
CuckooFilter::shadowErase(std::uint64_t item)
{
    if (shadow_.empty())
        return; // nothing tracked, nothing to purge
    std::vector<std::uint64_t> &same_fp = shadow_[fingerprintOf(item)];
    auto it = std::find(same_fp.begin(), same_fp.end(), item);
    if (it != same_fp.end()) {
        *it = same_fp.back();
        same_fp.pop_back();
        return;
    }
    // Erasing an item we never tracked still removed one copy of its
    // fingerprint — which some tracked item may have depended on.
    shadowPurgeFingerprint(fingerprintOf(item));
}

void
CuckooFilter::shadowPurgeFingerprint(Fingerprint fp)
{
    if (!shadow_.empty())
        shadow_[fp].clear();
}

} // namespace barre
