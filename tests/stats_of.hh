/**
 * @file
 * Unit-test access to one component's stats through the same
 * registration hook System uses for --stats and RunMetrics.
 */

#pragma once

#include "sim/stats.hh"

namespace barre
{

/** A registry of @p c's stats; read it while @p c is alive. */
template <typename C>
StatRegistry
statsOf(C &c)
{
    StatRegistry stats;
    c.regStats(stats);
    return stats;
}

} // namespace barre
