/**
 * @file
 * F-Barre's per-chiplet coalescing-group filter engine (paper §V-A).
 *
 * Each chiplet owns one *local coalescing-group filter* (LCF) mirroring
 * its own L2 TLB contents (exact VPNs only), and one *remote
 * coalescing-group filter* (RCF) per peer chiplet, holding the exact VPN
 * *and every coalescing VPN* of each entry the peer's L2 TLB holds. A
 * hit in RCF_j predicts that peer j can translate the VPN via a
 * coalesced calculation.
 *
 * This class is the filter state plus update bookkeeping; message timing
 * (best-effort, 43-bit updates) is applied by the F-Barre translation
 * service that owns it.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "filters/cuckoo_filter.hh"
#include "mem/types.hh"
#include "sim/domain_guard.hh"
#include "sim/invariant.hh"
#include "sim/stats.hh"

namespace barre
{

// domain-owner:chiplet — one engine per chiplet; only its own chiplet's
// sequencing context may touch it (filter updates from peers arrive as
// interconnect messages and are applied at delivery).
class FilterEngine : public DomainOwned
{
  public:
    /**
     * @param chiplet   owner chiplet id
     * @param chiplets  total chiplets in the package
     * @param params    geometry shared by the LCF and all RCFs
     */
    FilterEngine(ChipletId chiplet, std::uint32_t chiplets,
                 const CuckooFilterParams &params);

    ChipletId chiplet() const { return owner_; }

    /** Key filters by (pid, vpn) so multi-app runs do not alias. */
    static std::uint64_t
    keyOf(ProcessId pid, Vpn vpn)
    {
        return (std::uint64_t{pid} << 52) ^ vpn;
    }

    /// @name Local filter (mirrors own L2 TLB exact VPNs)
    /// @{
    void lcfInsert(ProcessId pid, Vpn vpn);
    void lcfErase(ProcessId pid, Vpn vpn);
    bool lcfContains(ProcessId pid, Vpn vpn) const;

    /** lcfContains without touching the hit/lookup statistics (audits). */
    bool
    lcfPeek(ProcessId pid, Vpn vpn) const
    {
        return lcf_.contains(keyOf(pid, vpn));
    }

    /** Lossy LCF inserts so far; while 0 the LCF has no false negatives. */
    std::uint64_t lcfLossyInserts() const { return lcf_.lossyInserts(); }
    /// @}

    /// @name Remote filters (one per peer, updated by peer messages)
    /// @{
    void rcfInsert(ChipletId peer, ProcessId pid, Vpn vpn);
    void rcfErase(ChipletId peer, ProcessId pid, Vpn vpn);

    /**
     * Which peer (if any) is predicted to be able to translate
     * (pid, vpn)? Checks all RCFs; first hit wins.
     */
    std::optional<ChipletId> predictSharer(ProcessId pid, Vpn vpn) const;
    /// @}

    /**
     * Debug invariant (BARRE_CHECK_INVARIANTS builds only): every key
     * this engine was told a peer holds — applied rcfInsert()s minus
     * applied rcfErase()s — must still test positive in that peer's
     * RCF. Cuckoo filters guarantee no false negatives *until* an
     * insert overflows and drops a victim fingerprint; a peer whose
     * RCF reports lossy inserts is exempt, which bounds the audit's
     * false-negative window to exactly the by-design lossy regime.
     * Panics (throws) on violation; no-op in normal builds.
     */
    void auditRcfMembership() const;

    /**
     * Test hook: wipe one slot of peer @p peer's RCF behind the shadow
     * bookkeeping's back so invariant tests can assert
     * auditRcfMembership() fires.
     */
    void
    debugCorruptRcfSlot(ChipletId peer, std::uint32_t bucket,
                        std::uint32_t way)
    {
        rcfFor(peer).debugCorruptSlot(bucket, way);
    }

    /** TLB-shootdown reset: clear the LCF and every RCF (paper §VI). */
    void reset();

    /** Storage cost of all filters in bits (§VII-K). */
    std::uint64_t storageBits() const;

    std::uint64_t lcfHits() const { return lcf_hits_.value(); }
    std::uint64_t lcfLookups() const { return lcf_lookups_.value(); }
    std::uint64_t rcfHits() const { return rcf_hits_.value(); }

  private:
    CuckooFilter &rcfFor(ChipletId peer);
    const CuckooFilter &rcfFor(ChipletId peer) const;

    ChipletId owner_;
    std::uint32_t chiplets_;
    CuckooFilter lcf_;
    /** Indexed by peer id; the slot for owner_ is unused but present. */
    std::vector<CuckooFilter> rcfs_;
    /**
     * Expected RCF membership per peer (applied inserts minus applied
     * erases); populated only when invariants_enabled. std::set keeps
     * audit iteration order deterministic.
     */
    std::vector<std::set<std::uint64_t>> rcf_shadow_;

    mutable Counter lcf_hits_;
    mutable Counter lcf_lookups_;
    mutable Counter rcf_hits_;
};

} // namespace barre

