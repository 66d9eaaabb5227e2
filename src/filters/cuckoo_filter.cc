#include "filters/cuckoo_filter.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "sim/logging.hh"

namespace barre
{

CuckooFilter::CuckooFilter(const CuckooFilterParams &p)
    : params_(p), kick_rng_(p.salt ^ 0xcafef00dull)
{
    barre_assert(std::has_single_bit(params_.rows),
                 "cuckoo filter rows must be a power of two");
    barre_assert(params_.ways >= 1, "need at least one way");
    barre_assert(params_.fingerprint_bits >= 1 &&
                 params_.fingerprint_bits <= 16,
                 "fingerprint must be 1..16 bits");
    row_mask_ = params_.rows - 1;
    // (next() * 2^k) >> 64 == next() >> (64 - k): Rng::below's draw
    // without the wide multiply. ways == 1 keeps below() (shift 64).
    if (params_.ways > 1 && std::has_single_bit(params_.ways))
        victim_shift_ = 64 - std::countr_zero(params_.ways);
    // Buckets sit a power-of-two number of slots apart, so a kick finds
    // its bucket with a shift; ways past `ways` are never used.
    stride_bits_ = std::countr_zero(std::bit_ceil(params_.ways));
    alt_xor_.resize(std::size_t{1} << params_.fingerprint_bits);
    for (std::size_t fp = 1; fp < alt_xor_.size(); ++fp)
        alt_xor_[fp] =
            static_cast<std::uint32_t>(mixHash(fp, params_.salt)) &
            row_mask_;
    slots_.assign(std::size_t{params_.rows} << stride_bits_, Slot{});
    free_ways_.assign(params_.rows, params_.ways);
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
CuckooFilter::bucketOf(std::uint64_t item) const
{
    return static_cast<std::uint32_t>(mixHash(item, params_.salt)) &
           row_mask_;
}

std::uint32_t
CuckooFilter::victimWay(Rng &rng) const
{
    if (victim_shift_ != 0)
        return static_cast<std::uint32_t>(rng.next() >> victim_shift_);
    return static_cast<std::uint32_t>(rng.below(params_.ways));
}

CuckooFilter::Slot &
CuckooFilter::slot(std::uint32_t bucket, std::uint32_t way)
{
    return slots_[(std::size_t{bucket} << stride_bits_) + way];
}

const CuckooFilter::Slot &
CuckooFilter::slot(std::uint32_t bucket, std::uint32_t way) const
{
    return slots_[(std::size_t{bucket} << stride_bits_) + way];
}

void
CuckooFilter::debugCorruptSlot(std::uint32_t bucket, std::uint32_t way,
                               std::uint16_t fp)
{
    Slot &s = slot(bucket, way);
    s.fp = fp;
    if (fp == empty_fp)
        s.alt = 0;
}

bool
CuckooFilter::tryPlace(std::uint32_t bucket, const Slot &s)
{
    if (free_ways_[bucket] == 0)
        return false;
    for (std::uint32_t w = 0; w < params_.ways; ++w) {
        if (slot(bucket, w).fp == empty_fp) {
            slot(bucket, w) = s;
            --free_ways_[bucket];
            ++occupied_;
            return true;
        }
    }
    return false;
}

bool
CuckooFilter::bucketHas(std::uint32_t bucket, Fingerprint fp) const
{
    for (std::uint32_t w = 0; w < params_.ways; ++w)
        if (slot(bucket, w).fp == fp)
            return true;
    return false;
}

bool
CuckooFilter::removeFrom(std::uint32_t bucket, Fingerprint fp)
{
    for (std::uint32_t w = 0; w < params_.ways; ++w) {
        if (slot(bucket, w).fp == fp) {
            slot(bucket, w) = Slot{};
            ++free_ways_[bucket];
            --occupied_;
            return true;
        }
    }
    return false;
}

bool
CuckooFilter::insert(std::uint64_t item)
{
    Fingerprint fp = fingerprintOf(item);
    std::uint32_t i1 = bucketOf(item);
    Slot carry{alt_xor_[fp], fp};
    std::uint32_t i2 = i1 ^ carry.alt;

    if (tryPlace(i1, carry) || tryPlace(i2, carry)) {
        BARRE_AUDIT(shadowInsert(item));
        BARRE_AUDIT_EVERY(audit_tick_, kAuditPeriod,
                          auditNoFalseNegatives());
        return true;
    }

    // Both buckets full: relocate a victim, alternating buckets. Every
    // bucket the chain visits is full, so each swap trades the carried
    // fingerprint for a resident one and only the free count of the
    // bucket it ends on can be non-zero. The chain runs on a local copy
    // of the RNG so its state stays in registers.
    Rng rng = kick_rng_;
    std::uint32_t bucket = (rng.next() & 1) ? i2 : i1;
    std::uint32_t kick = 0;
    for (; kick < params_.max_kicks; ++kick) {
        std::swap(carry, slot(bucket, victimWay(rng)));
        bucket ^= carry.alt;
        if (free_ways_[bucket] != 0)
            break;
    }
    kick_rng_ = rng;
    if (kick < params_.max_kicks) {
        tryPlace(bucket, carry);
        BARRE_AUDIT(shadowInsert(item));
        BARRE_AUDIT_EVERY(audit_tick_, kAuditPeriod,
                          auditNoFalseNegatives());
        return true;
    }
    // Filter too full; the displaced fingerprint is dropped. This makes
    // the failure lossy (a prior item may now miss), matching hardware
    // filters that bound insertion work. Callers treat this as an
    // unfortunate-but-safe event (filters are hints, verified at the TLB).
    // The inserted item itself landed in the table along the kick chain;
    // any shadow item sharing the dropped fingerprint may be the loser,
    // so all of them leave the audit's tracking set.
    ++lossy_;
    BARRE_AUDIT(shadowInsert(item));
    BARRE_AUDIT(shadowPurgeFingerprint(carry.fp));
    return false;
}

bool
CuckooFilter::contains(std::uint64_t item) const
{
    Fingerprint fp = fingerprintOf(item);
    std::uint32_t i1 = bucketOf(item);
    return bucketHas(i1, fp) || bucketHas(i1 ^ alt_xor_[fp], fp);
}

bool
CuckooFilter::erase(std::uint64_t item)
{
    Fingerprint fp = fingerprintOf(item);
    std::uint32_t i1 = bucketOf(item);
    bool removed =
        removeFrom(i1, fp) || removeFrom(i1 ^ alt_xor_[fp], fp);
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
    std::fill(slots_.begin(), slots_.end(), Slot{});
    std::fill(free_ways_.begin(), free_ways_.end(), params_.ways);
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
            const Slot &s = slot(b, w);
            std::uint32_t want =
                s.fp == empty_fp ? 0 : alt_xor_[s.fp];
            barre_assert(s.alt == want,
                         "cuckoo slot (%u, %u) holds alt XOR %u, its "
                         "fingerprint %u needs %u",
                         b, w, s.alt, unsigned{s.fp}, want);
            empty += s.fp == empty_fp;
        }
        barre_assert(free_ways_[b] == empty,
                     "cuckoo bucket %u free count %u != %u empty ways",
                     b, free_ways_[b], empty);
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
        shadow_.resize(alt_xor_.size());
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
