/**
 * @file
 * The simulator's deterministic discrete-event queue.
 *
 * Events are closures scheduled at an absolute Tick. EventQueue
 * (sim/domain.hh) is the one engine: every event fires in the exact
 * total order (when, birth, key), whether the queue runs as one domain
 * (serially, via run() or the harness DomainScheduler) or split into
 * domains advanced on several threads. With one tag, events scheduled
 * for the same tick fire in scheduling order, which keeps simulations
 * reproducible across runs and platforms.
 *
 * Usage:
 * @code
 *   EventQueue eq;
 *   eq.schedule(100, [] { ... });
 *   eq.run();          // until empty
 * @endcode
 *
 * Event payloads are InlineFn (sim/inline_fn.hh): move-only callables
 * with a 48-byte inline buffer, so the common 2–3-pointer capture
 * schedules without any heap allocation.
 */

#pragma once

#include "sim/domain.hh"
#include "sim/inline_fn.hh"
#include "sim/types.hh"

namespace barre
{

/** The name the repo benchmark still spells for the queue. */
using TaggedEngine = EventQueue;

/**
 * The whole point of InlineFn here: per-event scheduling must not touch
 * the allocator for ordinary captures. Guard against regressing back
 * to a heap-allocating payload type.
 */
static_assert(
    EventQueue::Callback::fitsInline<decltype([p = (void *)nullptr,
                                               q = (void *)nullptr,
                                               t = Tick{0}] {})>(),
    "EventQueue::Callback must store small captures inline");

} // namespace barre
