/**
 * @file
 * Cuckoo filter (Fan, Andersen, Kaminsky, Mitzenmacher, CoNEXT'14).
 *
 * F-Barre uses these as the local/remote coalescing-group filters (LCF and
 * RCFs): approximate membership with support for deletion, which Bloom
 * filters lack and TLB insert/evict tracking requires (paper §V-A1).
 *
 * Partial-key cuckoo hashing: an item x stores fingerprint(x) in one of
 * two buckets, i1 = H(x) and i2 = i1 xor H(fingerprint). Table II
 * configures 9-bit fingerprints, 4-way buckets, 256 rows (1024 slots).
 *
 * The host-side layout is wider than the modelled one (storageBits()).
 * Each slot is one 32-bit word: the fingerprint in the high 16 bits and,
 * in the low 16, the XOR that takes the slot's bucket base (the index
 * of the bucket's first slot) to the fingerprint's other bucket base.
 * A per-instance table holds every fingerprint's whole word, and each
 * bucket keeps a one-byte free-slot count. A kick then carries a bucket
 * base and its dependent chain is one load plus one XOR; contains,
 * erase and placement find their way with one branchless scan of the
 * bucket. The 16-bit offset and the 8-bit count bound the geometry to
 * 65,536 slots and 255 ways; the constructor refuses anything larger.
 * Results, table contents and the kick RNG sequence are those of the
 * plain layout.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "filters/hash.hh"
#include "sim/invariant.hh"
#include "sim/rng.hh"

namespace barre
{

struct CuckooFilterParams
{
    std::uint32_t rows = 256;          ///< buckets (power of two)
    std::uint32_t ways = 4;            ///< slots per bucket
    std::uint32_t fingerprint_bits = 9;
    std::uint32_t max_kicks = 128;     ///< relocation budget on insert
    std::uint64_t salt = 0;            ///< per-instance hash salt

    bool operator==(const CuckooFilterParams &) const = default;
};

// domain-owner:chiplet — always embedded in a chiplet's FilterEngine,
// which carries the dynamic ownership binding.
class CuckooFilter
{
  public:
    explicit CuckooFilter(const CuckooFilterParams &p = {});

    /**
     * Insert @p item.
     * @return false only if the filter is too full (insert failed after
     *         max_kicks relocations); the paper's best-effort filter
     *         updates tolerate this.
     */
    bool insert(std::uint64_t item);

    /** @return true if @p item may be present (no false negatives). */
    bool contains(std::uint64_t item) const;

    /**
     * Delete one copy of @p item.
     * @return false if no matching fingerprint was found.
     */
    bool erase(std::uint64_t item);

    /** Remove everything (TLB-shootdown reset, paper §VI). */
    void clear();

    std::uint64_t size() const { return occupied_; }

    /**
     * Number of inserts that failed after exhausting max_kicks, each of
     * which may have silently dropped one resident fingerprint. While
     * this is zero the filter has had no false negatives.
     */
    std::uint64_t lossyInserts() const { return lossy_; }

    std::uint64_t capacity() const
    {
        return std::uint64_t{params_.rows} * params_.ways;
    }
    double loadFactor() const
    {
        return static_cast<double>(occupied_) / capacity();
    }

    /** Storage cost in bits (for the §VII-K overhead model). */
    std::uint64_t
    storageBits() const
    {
        return capacity() * params_.fingerprint_bits;
    }

    const CuckooFilterParams &params() const { return params_; }

    /**
     * Deep audit (sim/invariant.hh): every item successfully inserted
     * and not yet erased or displaced by a lossy full-filter insert
     * must still be locatable — the filter's no-false-negative
     * guarantee — and the per-bucket free counts, every slot word's
     * packed base XOR and the occupancy counter must match the table.
     * The shadow tracking behind the first check is only maintained
     * under BARRE_CHECK_INVARIANTS; the table checks run in every
     * build. Panics (throws) on violation.
     */
    void auditNoFalseNegatives() const;

    /**
     * Test hook: overwrite one slot's fingerprint with @p fp (0 wipes
     * the slot) behind the bookkeeping's back. The bucket's free count,
     * the occupancy counter and, for a non-zero @p fp, the slot word's
     * packed base XOR keep their old values, so invariant tests can
     * assert auditNoFalseNegatives() fires.
     */
    void debugCorruptSlot(std::uint32_t bucket, std::uint32_t way,
                          std::uint16_t fp = 0);

  private:
    using Fingerprint = std::uint16_t; // holds up to 16-bit fingerprints

    /**
     * One slot of the host-side table: the fingerprint above kFpShift
     * and, below it, the XOR from this slot's bucket base to the
     * fingerprint's other bucket base, so a kick reads both with one
     * load. Empty slots are all-zero.
     */
    using Word = std::uint32_t;

    static constexpr Fingerprint empty_fp = 0;
    static constexpr unsigned kFpShift = 16;
    static constexpr Word kBaseXorMask = (Word{1} << kFpShift) - 1;
    /** Largest slot table a kBaseXorMask offset can address. */
    static constexpr std::uint64_t kMaxSlots = std::uint64_t{1} << kFpShift;
    /** Largest way count a per-bucket std::uint8_t free count holds. */
    static constexpr std::uint32_t kMaxWays = 255;
    static constexpr std::uint64_t kAuditPeriod = 256;

    static Fingerprint fpOf(Word w) { return Fingerprint(w >> kFpShift); }

    Fingerprint fingerprintOf(std::uint64_t item) const;
    /** Slot index of the first way of @p item's primary bucket. */
    std::uint32_t baseOf(std::uint64_t item) const;

    /**
     * The first way of the bucket at @p base holding @p fp (empty_fp:
     * the first empty way), or params_.ways if none. One select per
     * way and no branch on the slots' contents.
     */
    std::uint32_t findWay(std::uint32_t base, Fingerprint fp) const;
    bool tryPlace(std::uint32_t base, Word w);
    bool removeFrom(std::uint32_t base, Fingerprint fp);

    CuckooFilterParams params_;
    std::uint32_t row_mask_;
    /** 64 - log2(ways) when ways is a power of two above 1, else 0. */
    std::uint32_t victim_shift_ = 0;
    std::uint32_t stride_bits_ = 0; ///< log2 of slots per bucket in slots_
    /**
     * Per fingerprint: its slot word, whose base XOR is
     * (mixHash(fp, salt) & row_mask_) << stride_bits_. Entry 0 is the
     * empty word.
     */
    std::vector<Word> word_of_;
    std::vector<Word> slots_;
    std::vector<std::uint8_t> free_ways_; ///< per bucket: empty slots
    std::uint64_t occupied_ = 0;
    std::uint64_t lossy_ = 0;
    Rng kick_rng_;

    /**
     * Shadow multiset of live items, maintained only under
     * BARRE_CHECK_INVARIANTS (see shadowInsert/shadowErase) and indexed
     * by fingerprint, so an erase or purge touches only the items
     * sharing one fingerprint. Items whose fingerprint a lossy insert
     * may have displaced are purged conservatively, so the audit never
     * reports a by-design loss. Sized on the first tracked insert.
     */
    std::vector<std::vector<std::uint64_t>> shadow_;
    std::uint64_t audit_tick_ = 0; ///< BARRE_AUDIT_EVERY site counter

    void shadowInsert(std::uint64_t item);
    void shadowErase(std::uint64_t item);
    void shadowPurgeFingerprint(Fingerprint fp);
};

} // namespace barre
