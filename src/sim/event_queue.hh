/**
 * @file
 * The event queue's older name, which the repo benchmark still spells.
 * The queue itself is EventQueue (sim/domain.hh).
 */

#pragma once

#include "sim/domain.hh"

namespace barre
{

/** The name the repo benchmark still spells for the queue. */
using TaggedEngine = EventQueue;

} // namespace barre
