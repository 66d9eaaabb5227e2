/**
 * @file
 * domain_lint negative fixture. Expected violations:
 *  - Gadget: component class with no domain-owner annotation;
 *  - WidgetDirectory: host-owned class holding a chiplet-owned Widget
 *    without a domain-cross marker;
 *  - WidgetDirectory: a second chiplet-owned Widget acknowledged only
 *    as domain-cross:sync, which is no longer an accepted marker.
 */

#pragma once

namespace barre
{

class Gadget
{
  public:
    void poke();
};

// domain-owner:chiplet — one per chiplet.
class Widget
{
  public:
    void poke();
};

// domain-owner:host — the package-level directory.
class WidgetDirectory
{
  public:
    void poke();

  private:
    Widget *widget_ = nullptr;
    // domain-cross:sync — direct pokes; serial-only until routed
    // over a message path.
    Widget *synced_widget_ = nullptr;
};

} // namespace barre
