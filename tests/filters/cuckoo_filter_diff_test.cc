/**
 * @file
 * Differential and golden tests for the cuckoo filter's host-side
 * layout (32-bit slot words carrying their other bucket's offset, a
 * per-fingerprint word table, per-bucket free counts, branchless
 * bucket probes).
 *
 * RefCuckooFilter is the filter as it stood before that layout: one
 * 16-bit fingerprint per slot, the alt-bucket hash recomputed on every
 * kick, contains and erase, a way scan per bucket and Rng::below() for
 * every victim. Seeded insert/erase/contains/clear streams must get the
 * same answers, size() and lossyInserts() from both filters, over
 * geometries far from Table II's. The golden digest pins the default
 * filter's kick and RNG sequence on its own, so it still guards them if
 * the reference copy is ever edited.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "filters/cuckoo_filter.hh"
#include "filters/hash.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

using namespace barre;

namespace
{

/** The plain-layout filter, kept verbatim minus its audit hooks. */
class RefCuckooFilter
{
  public:
    explicit RefCuckooFilter(const CuckooFilterParams &p)
        : params_(p), kick_rng_(p.salt ^ 0xcafef00dull)
    {
        row_mask_ = params_.rows - 1;
        slots_.assign(std::size_t{params_.rows} * params_.ways,
                      empty_slot);
    }

    bool
    insert(std::uint64_t item)
    {
        Fingerprint fp = fingerprintOf(item);
        std::uint32_t i1 = bucketOf(item);
        std::uint32_t i2 = altBucket(i1, fp);

        if (tryPlace(i1, fp) || tryPlace(i2, fp))
            return true;

        std::uint32_t bucket = (kick_rng_.next() & 1) ? i2 : i1;
        for (std::uint32_t kick = 0; kick < params_.max_kicks; ++kick) {
            std::uint32_t victim_way =
                static_cast<std::uint32_t>(kick_rng_.below(params_.ways));
            std::swap(fp, slot(bucket, victim_way));
            bucket = altBucket(bucket, fp);
            if (tryPlace(bucket, fp))
                return true;
        }
        ++lossy_;
        return false;
    }

    bool
    contains(std::uint64_t item) const
    {
        Fingerprint fp = fingerprintOf(item);
        std::uint32_t i1 = bucketOf(item);
        if (bucketHas(i1, fp))
            return true;
        return bucketHas(altBucket(i1, fp), fp);
    }

    bool
    erase(std::uint64_t item)
    {
        Fingerprint fp = fingerprintOf(item);
        std::uint32_t i1 = bucketOf(item);
        return removeFrom(i1, fp) || removeFrom(altBucket(i1, fp), fp);
    }

    void
    clear()
    {
        std::fill(slots_.begin(), slots_.end(), empty_slot);
        occupied_ = 0;
        lossy_ = 0;
    }

    std::uint64_t size() const { return occupied_; }
    std::uint64_t lossyInserts() const { return lossy_; }

  private:
    using Fingerprint = std::uint16_t;

    static constexpr Fingerprint empty_slot = 0;

    Fingerprint
    fingerprintOf(std::uint64_t item) const
    {
        std::uint64_t h = mixHash(item, params_.salt + 1);
        auto fp = static_cast<Fingerprint>(
            h & ((std::uint64_t{1} << params_.fingerprint_bits) - 1));
        return fp == empty_slot ? Fingerprint{1} : fp;
    }

    std::uint32_t
    bucketOf(std::uint64_t item) const
    {
        return static_cast<std::uint32_t>(mixHash(item, params_.salt)) &
               row_mask_;
    }

    std::uint32_t
    altBucket(std::uint32_t bucket, Fingerprint fp) const
    {
        return (bucket ^
                static_cast<std::uint32_t>(mixHash(fp, params_.salt))) &
               row_mask_;
    }

    Fingerprint &
    slot(std::uint32_t bucket, std::uint32_t way)
    {
        return slots_[std::size_t{bucket} * params_.ways + way];
    }

    const Fingerprint &
    slot(std::uint32_t bucket, std::uint32_t way) const
    {
        return slots_[std::size_t{bucket} * params_.ways + way];
    }

    bool
    tryPlace(std::uint32_t bucket, Fingerprint fp)
    {
        for (std::uint32_t w = 0; w < params_.ways; ++w) {
            if (slot(bucket, w) == empty_slot) {
                slot(bucket, w) = fp;
                ++occupied_;
                return true;
            }
        }
        return false;
    }

    bool
    bucketHas(std::uint32_t bucket, Fingerprint fp) const
    {
        for (std::uint32_t w = 0; w < params_.ways; ++w)
            if (slot(bucket, w) == fp)
                return true;
        return false;
    }

    bool
    removeFrom(std::uint32_t bucket, Fingerprint fp)
    {
        for (std::uint32_t w = 0; w < params_.ways; ++w) {
            if (slot(bucket, w) == fp) {
                slot(bucket, w) = empty_slot;
                --occupied_;
                return true;
            }
        }
        return false;
    }

    CuckooFilterParams params_;
    std::uint32_t row_mask_;
    std::vector<Fingerprint> slots_;
    std::uint64_t occupied_ = 0;
    std::uint64_t lossy_ = 0;
    Rng kick_rng_;
};

/**
 * Seeded op stream: inserts of fresh keys and of duplicates, erases of
 * live keys and of strangers, contains probes, and rare clears. The
 * live list is what the stream believes it inserted; once the filter
 * turns lossy most of its erases miss, as on a saturated RCF.
 */
class OpStream
{
  public:
    enum class Op { insert, erase, contains, clear };

    explicit OpStream(std::uint64_t seed) : rng_(seed) {}

    /** Draw the next op; insert_pct of 100 draws are inserts. */
    std::pair<Op, std::uint64_t>
    next(unsigned insert_pct, bool allow_clear)
    {
        unsigned r = static_cast<unsigned>(rng_.below(1000));
        if (allow_clear && r == 0) {
            live_.clear();
            return {Op::clear, 0};
        }
        r %= 100;
        if (r < insert_pct) {
            std::uint64_t key = fresh();
            if (!live_.empty() && rng_.below(5) == 0)
                key = live_[rng_.below(live_.size())];
            live_.push_back(key);
            return {Op::insert, key};
        }
        if (r < insert_pct + (100 - insert_pct) * 2 / 3) {
            if (live_.empty() || rng_.below(4) == 0)
                return {Op::erase, fresh()};
            std::size_t i = rng_.below(live_.size());
            std::uint64_t key = live_[i];
            live_[i] = live_.back();
            live_.pop_back();
            return {Op::erase, key};
        }
        if (!live_.empty() && rng_.below(2) == 0)
            return {Op::contains, live_[rng_.below(live_.size())]};
        return {Op::contains, fresh()};
    }

    /** Every live key plus @p strangers fresh ones. */
    std::vector<std::uint64_t>
    probeSet(unsigned strangers)
    {
        std::vector<std::uint64_t> probes = live_;
        for (unsigned i = 0; i < strangers; ++i)
            probes.push_back(fresh());
        return probes;
    }

  private:
    std::uint64_t fresh() { return rng_.next(); }

    Rng rng_;
    std::vector<std::uint64_t> live_;
};

/**
 * Run one stream through both filters: a fill phase of about
 * @p load × capacity inserts, a churn phase, a clear, and a refill.
 * Every op's answer, size() and lossyInserts() must agree; contains()
 * must agree over a probe set after each phase.
 */
void
expectSameAsReference(const CuckooFilterParams &p, double load,
                      std::uint64_t seed)
{
    SCOPED_TRACE(::testing::Message()
                 << "rows " << p.rows << " ways " << p.ways << " fp_bits "
                 << p.fingerprint_bits << " max_kicks " << p.max_kicks
                 << " salt " << p.salt << " load " << load << " seed "
                 << seed);
    CuckooFilter fast(p);
    RefCuckooFilter ref(p);
    OpStream ops(seed);
    const std::uint64_t capacity = fast.capacity();

    auto step = [&](unsigned insert_pct, bool allow_clear) {
        auto [op, key] = ops.next(insert_pct, allow_clear);
        switch (op) {
          case OpStream::Op::insert:
            ASSERT_EQ(fast.insert(key), ref.insert(key)) << "insert";
            break;
          case OpStream::Op::erase:
            ASSERT_EQ(fast.erase(key), ref.erase(key)) << "erase";
            break;
          case OpStream::Op::contains:
            ASSERT_EQ(fast.contains(key), ref.contains(key)) << "contains";
            break;
          case OpStream::Op::clear:
            fast.clear();
            ref.clear();
            break;
        }
        ASSERT_EQ(fast.size(), ref.size());
        ASSERT_EQ(fast.lossyInserts(), ref.lossyInserts());
    };
    auto checkpoint = [&](const char *phase) {
        for (std::uint64_t key : ops.probeSet(64))
            ASSERT_EQ(fast.contains(key), ref.contains(key))
                << phase << " probe " << key;
    };

    // Fill: 70% inserts, 20% erases, 10% contains, so the net fill is
    // about half the op count.
    const auto fill_ops = static_cast<std::uint64_t>(
        load * static_cast<double>(capacity) * 2.0) + 4;
    for (std::uint64_t i = 0; i < fill_ops; ++i) {
        step(70, false);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    checkpoint("fill");
    for (std::uint64_t i = 0; i < capacity + 16; ++i) {
        step(40, true);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    checkpoint("churn");
    fast.clear();
    ref.clear();
    ASSERT_EQ(fast.size(), 0u);
    ASSERT_EQ(fast.lossyInserts(), 0u);
    for (std::uint64_t i = 0; i < capacity / 2 + 8; ++i) {
        step(70, false);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    checkpoint("refill");
    EXPECT_NO_THROW(fast.auditNoFalseNegatives());
}

constexpr std::uint64_t kSalts[] = {0, 1, 99, 0xdeadbeefull,
                                    0xffffffffffffffffull};
constexpr double kLoads[] = {0.2, 0.6, 1.0, 2.0, 4.0};

/** FNV-1a over the 8 little-endian bytes of @p v. */
void
fnvMix(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
}

} // namespace

TEST(CuckooFilterDiff, MatchesReferenceOverEveryAxis)
{
    // Every (ways, fingerprint_bits, max_kicks) combination, each with
    // its own row count (cycling 1..1024), salt and load (20%..400%).
    const std::uint32_t ways[] = {1, 2, 3, 4, 8};
    const std::uint32_t fp_bits[] = {1, 4, 9, 12, 16};
    const std::uint32_t kicks[] = {0, 1, 128};
    unsigned n = 0;
    for (std::uint32_t w : ways) {
        for (std::uint32_t f : fp_bits) {
            for (std::uint32_t k : kicks) {
                CuckooFilterParams p;
                p.rows = 1u << (n % 11);
                p.ways = w;
                p.fingerprint_bits = f;
                p.max_kicks = k;
                p.salt = kSalts[n % std::size(kSalts)];
                // Keep tables bigger than Table II's, and long chains,
                // off the 400% end so the test stays fast under
                // sanitizers and invariant audits.
                double load = kLoads[(n * 3) % std::size(kLoads)];
                if (std::uint64_t{p.rows} * w > 1024 ||
                    std::uint64_t{p.rows} * w * k > 16384)
                    load = std::min(load, 1.0);
                expectSameAsReference(p, load, 1000 + n);
                if (HasFatalFailure())
                    return;
                ++n;
            }
        }
    }
}

TEST(CuckooFilterDiff, MatchesReferenceAtTableIIGeometry)
{
    // 256 rows x 4 ways x 9 bits, 128 kicks: every load, two salts.
    unsigned n = 0;
    for (std::uint64_t salt : {std::uint64_t{0}, ~std::uint64_t{0}}) {
        for (double load : kLoads) {
            CuckooFilterParams p;
            p.salt = salt;
            expectSameAsReference(p, load, 2000 + n++);
            if (HasFatalFailure())
                return;
        }
    }
}

TEST(CuckooFilterDiff, MatchesReferenceAcrossRowCounts)
{
    // Every power-of-two row count 1..1024, filled to capacity, with the
    // Table II ways, fingerprint width and kick budget.
    for (std::uint32_t rows = 1; rows <= 1024; rows *= 2) {
        CuckooFilterParams p;
        p.rows = rows;
        p.salt = rows;
        expectSameAsReference(p, 1.0, 3000 + rows);
        if (HasFatalFailure())
            return;
    }
}

TEST(CuckooFilterDiff, MatchesReferenceAtLargestGeometries)
{
    // The slot word's 16-bit base XOR addresses 65,536 slots and the
    // one-byte free count holds 255 ways: fill each extreme with 16-bit
    // fingerprints, whose slot words use every bit.
    struct Geometry
    {
        std::uint32_t rows, ways;
    };
    const Geometry geometries[] = {{16384, 4}, {65536, 1}, {256, 255}};
    unsigned n = 0;
    for (const Geometry &g : geometries) {
        CuckooFilterParams p;
        p.rows = g.rows;
        p.ways = g.ways;
        p.fingerprint_bits = 16;
        p.salt = kSalts[n % std::size(kSalts)];
        expectSameAsReference(p, 1.0, 4000 + n++);
        if (HasFatalFailure())
            return;
    }
}

TEST(CuckooFilterDiff, RefusesGeometriesPastTheSlotWord)
{
    // One size past each limit: twice the largest table, one way more
    // than a free count holds, and a 3-way table whose padded buckets
    // (4 slots apart) would need a 17-bit offset.
    CuckooFilterParams p;
    p.rows = 32768;
    EXPECT_THROW(CuckooFilter f(p), FatalError);
    p.rows = 1;
    p.ways = 256;
    EXPECT_THROW(CuckooFilter f(p), FatalError);
    p.rows = 32768;
    p.ways = 3;
    EXPECT_THROW(CuckooFilter f(p), FatalError);
    p.rows = 16384;
    EXPECT_NO_THROW(CuckooFilter f(p));
}

TEST(CuckooFilterGolden, DefaultGeometryLossyStreamDigest)
{
    // 200 k seeded ops on the Table II filter, deep in the lossy
    // regime. The digest covers every return value plus the final
    // size() and lossyInserts(); it was recorded with the plain layout.
    CuckooFilter f;
    OpStream ops(0x5eed);
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (int i = 0; i < 200000; ++i) {
        auto [op, key] = ops.next(50, false);
        switch (op) {
          case OpStream::Op::insert:
            fnvMix(h, f.insert(key));
            break;
          case OpStream::Op::erase:
            fnvMix(h, f.erase(key));
            break;
          case OpStream::Op::contains:
            fnvMix(h, f.contains(key));
            break;
          case OpStream::Op::clear:
            break;
        }
    }
    fnvMix(h, f.size());
    fnvMix(h, f.lossyInserts());
    EXPECT_EQ(f.size(), 1024u);
    EXPECT_EQ(f.lossyInserts(), 92802u);
    EXPECT_EQ(h, 0x6a451ead5c4b7c50ull);
}
