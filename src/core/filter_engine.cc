#include "core/filter_engine.hh"

#include "sim/logging.hh"

namespace barre
{

namespace
{

CuckooFilterParams
saltedParams(const CuckooFilterParams &base, std::uint64_t salt)
{
    CuckooFilterParams p = base;
    p.salt = base.salt * 1315423911ull + salt;
    return p;
}

} // namespace

FilterEngine::FilterEngine(ChipletId chiplet, std::uint32_t chiplets,
                           const CuckooFilterParams &params)
    : owner_(chiplet), chiplets_(chiplets),
      lcf_(saltedParams(params, std::uint64_t{chiplet} * 2 + 1))
{
    barre_assert(chiplet < chiplets, "owner out of range");
    rcfs_.reserve(chiplets);
    for (std::uint32_t p = 0; p < chiplets; ++p) {
        rcfs_.emplace_back(
            saltedParams(params, (std::uint64_t{chiplet} << 8) | p));
    }
    if constexpr (invariants_enabled)
        rcf_shadow_.resize(chiplets);
}

void
FilterEngine::lcfInsert(ProcessId pid, Vpn vpn)
{
    domainCheck("lcfInsert");
    lcf_.insert(keyOf(pid, vpn));
}

void
FilterEngine::lcfErase(ProcessId pid, Vpn vpn)
{
    domainCheck("lcfErase");
    lcf_.erase(keyOf(pid, vpn));
}

bool
FilterEngine::lcfContains(ProcessId pid, Vpn vpn) const
{
    // Const but statistics-bearing; the oracle sharing mode probes peer
    // LCFs from the requester's context, which this check surfaces.
    domainCheck("lcfContains");
    ++lcf_lookups_;
    bool hit = lcf_.contains(keyOf(pid, vpn));
    if (hit)
        ++lcf_hits_;
    return hit;
}

CuckooFilter &
FilterEngine::rcfFor(ChipletId peer)
{
    barre_assert(peer < chiplets_ && peer != owner_,
                 "bad RCF peer %u", peer);
    return rcfs_[peer];
}

const CuckooFilter &
FilterEngine::rcfFor(ChipletId peer) const
{
    return const_cast<FilterEngine *>(this)->rcfFor(peer);
}

void
FilterEngine::rcfInsert(ChipletId peer, ProcessId pid, Vpn vpn)
{
    domainCheck("rcfInsert");
    rcfFor(peer).insert(keyOf(pid, vpn));
    if constexpr (invariants_enabled)
        rcf_shadow_[peer].insert(keyOf(pid, vpn));
}

void
FilterEngine::rcfErase(ChipletId peer, ProcessId pid, Vpn vpn)
{
    domainCheck("rcfErase");
    rcfFor(peer).erase(keyOf(pid, vpn));
    if constexpr (invariants_enabled)
        rcf_shadow_[peer].erase(keyOf(pid, vpn));
}

void
FilterEngine::auditRcfMembership() const
{
    if constexpr (invariants_enabled) {
        for (std::uint32_t p = 0; p < chiplets_; ++p) {
            if (p == owner_)
                continue;
            const CuckooFilter &rcf = rcfs_[p];
            // Once an insert dropped a victim fingerprint the filter
            // is legitimately lossy; the no-false-negative guarantee
            // (and so this audit) only binds before that point.
            if (rcf.lossyInserts() > 0)
                continue;
            for (std::uint64_t key : rcf_shadow_[p]) {
                barre_assert(rcf.contains(key),
                             "chiplet %u: RCF for peer %u lost key "
                             "%llx (false negative outside the lossy "
                             "regime)",
                             owner_, p, (unsigned long long)key);
            }
        }
    }
}

std::optional<ChipletId>
FilterEngine::predictSharer(ProcessId pid, Vpn vpn) const
{
    std::uint64_t key = keyOf(pid, vpn);
    for (std::uint32_t p = 0; p < chiplets_; ++p) {
        if (p == owner_)
            continue;
        if (rcfs_[p].contains(key)) {
            ++rcf_hits_;
            return static_cast<ChipletId>(p);
        }
    }
    return std::nullopt;
}

void
FilterEngine::reset()
{
    domainCheck("reset");
    lcf_.clear();
    for (auto &f : rcfs_)
        f.clear();
    if constexpr (invariants_enabled) {
        for (auto &shadow : rcf_shadow_)
            shadow.clear();
    }
}

std::uint64_t
FilterEngine::storageBits() const
{
    std::uint64_t bits = lcf_.storageBits();
    for (std::uint32_t p = 0; p < chiplets_; ++p)
        if (p != owner_)
            bits += rcfs_[p].storageBits();
    return bits;
}

} // namespace barre
