/**
 * @file
 * domain_lint positive fixture: every class annotated, every
 * cross-ownership member acknowledged. Expected: no violations.
 */

#pragma once

namespace barre
{

// domain-owner:chiplet — one per chiplet.
class GoodWidget
{
  public:
    void poke();
};

// domain-owner:shared — message path; safe from any domain.
class GoodLink
{
  public:
    void send();
};

// domain-owner:host — the package-level directory.
class GoodDirectory
{
  public:
    void poke();

  private:
    // domain-cross:message — every poke rides a GoodLink.
    GoodWidget *widget_ = nullptr;
    // Shared components are reachable from anywhere by definition.
    GoodLink *link_ = nullptr;
    // domain-owner:host — a host-bound instance of a chiplet class.
    GoodWidget *host_widget_ = nullptr;
};

} // namespace barre
