/**
 * @file
 * Dynamic domain-ownership audit for the conservative-PDES partition.
 *
 * Every mutable simulated-hardware component (TLBs, MSHRs, caches,
 * page tables, the IOMMU/driver/migrator, GMMU nodes, filter engines)
 * is *owned* by exactly one sequencing tag (sim/domain.hh): the host
 * side is tag 0, chiplet c is tag 1+c. The partition is sound iff
 * every mutating touch of a component happens from its owner's
 * execution context — anything else must travel over a Link/message
 * path (Link::sendTo / sendShared, Interconnect::send, Pcie) so the
 * access re-executes under the owner's tag.
 *
 * The guard turns that belief into a checked property. Components
 * inherit DomainOwned and call domainCheck("site") at the top of each
 * instrumented accessor; the System binds every component to its
 * owning tag when it builds the machine. The check is always compiled
 * (the pattern of sim/invariant.hh's audits) but costs one pointer
 * test while the guard is off. Two modes:
 *
 *  - off:    no checking (default outside System::run()).
 *  - panic:  a cross-domain touch throws via barre_panic — the debug /
 *            sanitizer default whenever a run is actually partitioned.
 *
 * $BARRE_DOMAIN_AUDIT (off|panic) overrides the default at
 * System::run() time. The static half of the analysis lives in
 * tools/domain_lint.py, which checks the `// domain-owner:` header
 * annotations against member cross-references at lint time.
 */

#pragma once

#include <cstdint>
#include <string>

#include "sim/domain.hh"

namespace barre
{

enum class DomainAuditMode : std::uint8_t
{
    off,
    panic,
};

/** Wildcard owner: a component legitimately touched from every tag. */
inline constexpr SeqTag kAnyDomain = 0xffff;

/**
 * The per-System audit switch. Components hold a pointer to it (via
 * DomainOwned::bindDomain) and read its mode on every instrumented
 * accessor.
 */
class DomainGuard
{
  public:
    DomainAuditMode mode() const { return mode_; }
    void setMode(DomainAuditMode m) { mode_ = m; }

    /**
     * Resolve the mode a run should use: $BARRE_DOMAIN_AUDIT wins;
     * otherwise a partitioned run under an invariant build defaults to
     * panic (a violation there is a real race), and anything else
     * keeps @p current (tests pre-arm panic mode through setMode).
     */
    static DomainAuditMode resolveMode(DomainAuditMode current,
                                       bool partitioned);

  private:
    DomainAuditMode mode_ = DomainAuditMode::off;
};

/**
 * Mixin giving a component an owning tag and the audit fast path.
 * Unbound components (unit tests building parts in isolation) check
 * nothing; the System binds the full machine in setupDomainGuard().
 */
class DomainOwned
{
  public:
    /** Register with @p guard as owned by @p owner. */
    void
    bindDomain(DomainGuard *guard, SeqTag owner, std::string name)
    {
        guard_ = guard;
        domain_owner_ = owner;
        domain_name_ = std::move(name);
    }

    SeqTag domainOwner() const { return domain_owner_; }
    DomainGuard *domainGuard() const { return guard_; }

    /**
     * Audit one instrumented accessor: the currently-executing event's
     * tag must match the owner. One pointer test when unbound or off.
     */
    void
    domainCheck(const char *site) const
    {
        if (guard_ == nullptr ||
            guard_->mode() == DomainAuditMode::off) {
            return;
        }
        const SeqTag t = currentExecTag();
        if (t == domain_owner_ || domain_owner_ == kAnyDomain)
            return;
        domainViolation(site, t);
    }

  protected:
    ~DomainOwned() = default;

  private:
    void domainViolation(const char *site, SeqTag accessor) const;

    DomainGuard *guard_ = nullptr;
    SeqTag domain_owner_ = kAnyDomain;
    std::string domain_name_;
};

} // namespace barre
