/**
 * @file
 * Trace-driven workloads: record the access streams a synthetic app
 * generates, or replay streams captured elsewhere (e.g. converted from
 * an MGPUSim/Accel-Sim memory trace).
 *
 * Format: plain text, one directive per line.
 *   # comment
 *   cta <index>            - start the stream of CTA <index>
 *   <hex vaddr>            - one warp-level access (pid defaults to 1)
 *   <hex vaddr> <pid>      - access with an explicit process id
 * CTA indices are dense: a `cta` line reopens an earlier CTA or starts
 * the next one.
 */

#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "gpu/cu.hh"
#include "workloads/workload.hh"

namespace barre
{

/** One application's access streams, indexed by CTA. */
struct Trace
{
    std::vector<std::vector<AccessDesc>> ctas;

    std::uint64_t
    totalAccesses() const
    {
        std::uint64_t n = 0;
        for (const auto &s : ctas)
            n += s.size();
        return n;
    }
};

/** Parse a trace from a stream; fatal naming any malformed line. */
Trace readTrace(std::istream &is);

/** Serialize a trace (readTrace's inverse). */
void writeTrace(std::ostream &os, const Trace &trace);

/**
 * Record the streams a workload model would generate (useful both for
 * exporting our synthetic suites and for regression-pinning them).
 */
Trace recordTrace(const AppParams &app,
                  const std::vector<DataAlloc> &allocs,
                  PageSize page_size);

} // namespace barre

