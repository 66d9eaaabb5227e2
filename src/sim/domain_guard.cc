#include "sim/domain_guard.hh"

#include <cstdlib>
#include <cstring>

#include "sim/invariant.hh"
#include "sim/logging.hh"

namespace barre
{

namespace
{

/** Human name for a sequencing tag ("host", "chiplet3", "any"). */
std::string
domainTagName(SeqTag t)
{
    if (t == kHostTag)
        return "host";
    if (t == kAnyDomain)
        return "any";
    return "chiplet" + std::to_string(unsigned(t) - 1);
}

} // namespace

DomainAuditMode
DomainGuard::resolveMode(DomainAuditMode current, bool partitioned)
{
    if (const char *env = std::getenv("BARRE_DOMAIN_AUDIT")) {
        if (std::strcmp(env, "off") == 0)
            return DomainAuditMode::off;
        if (std::strcmp(env, "panic") == 0)
            return DomainAuditMode::panic;
        barre_fatal("BARRE_DOMAIN_AUDIT=%s: expected off or panic", env);
    }
    if (partitioned && invariants_enabled &&
        current == DomainAuditMode::off) {
        return DomainAuditMode::panic;
    }
    return current;
}

void
DomainOwned::domainViolation(const char *site, SeqTag accessor) const
{
    barre_panic("domain violation: %s.%s owned by %s touched from "
                "%s's execution context — route it over a Link / "
                "message path (see DESIGN.md §8)",
                domain_name_.c_str(), site,
                domainTagName(domain_owner_).c_str(),
                domainTagName(accessor).c_str());
}

} // namespace barre
