/**
 * @file
 * Metrics extracted from one simulation run — the raw material for every
 * figure and table in the evaluation.
 */

#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "sim/types.hh"

namespace barre
{

/**
 * Per-tenant lifecycle and tail-latency metrics from a multi-tenant
 * scenario run (empty for static single/multi-app runs).
 */
struct TenantMetrics
{
    std::string app;
    std::uint32_t pid = 0;

    Tick arrival = 0; ///< launch tick
    Tick finish = 0;  ///< last access drained (host-observed)
    Tick retired = 0; ///< teardown + shootdown storm completed
    std::uint64_t accesses = 0;

    /// @name Translation latency percentiles, cycles (issue ->
    /// translated data access; LogHistogram representatives)
    /// @{
    std::uint64_t lat_p50 = 0;
    std::uint64_t lat_p95 = 0;
    std::uint64_t lat_p99 = 0;
    /// @}

    /** High-water L2 TLB entries held, summed over chiplets. */
    std::uint64_t peak_l2_tlb = 0;

    /** Wall the tenant ran: arrival to last access. */
    Tick runtime() const { return finish - arrival; }

    friend bool operator==(const TenantMetrics &,
                           const TenantMetrics &) = default;
};

struct RunMetrics
{
    std::string config;
    std::string app;

    Tick runtime = 0;
    std::uint64_t accesses = 0;
    double instructions = 0;
    std::uint64_t sim_events = 0; ///< events fired by the EventQueue

    /// @name TLB / translation
    /// @{
    std::uint64_t l1_tlb_hits = 0;
    std::uint64_t l2_tlb_hits = 0;
    std::uint64_t l2_tlb_misses = 0;
    double l2_mpki = 0;
    std::uint64_t mshr_retries = 0;
    /// @}

    /// @name IOMMU (Fig 16)
    /// @{
    std::uint64_t ats_packets = 0;
    std::uint64_t walks = 0;
    std::uint64_t iommu_coalesced = 0; ///< PEC-calculated at the IOMMU
    std::uint64_t iommu_tlb_hits = 0;
    double avg_ats_time = 0;
    double avg_pw_queue_depth = 0;
    /// @}

    /// @name F-Barre intra-MCM (Fig 17/18/19)
    /// @{
    std::uint64_t local_calc_hits = 0;
    std::uint64_t remote_probes = 0;
    std::uint64_t remote_hits = 0;
    std::uint64_t fbarre_fallbacks = 0;
    std::uint64_t lcf_positives = 0;
    std::uint64_t lcf_true_positives = 0;
    std::uint64_t filter_updates = 0;
    /// @}

    /// @name Data path / NUMA
    /// @{
    std::uint64_t local_data = 0;
    std::uint64_t remote_data = 0;
    std::uint64_t noc_bytes = 0;
    std::uint64_t pcie_up_bytes = 0;
    std::uint64_t pcie_down_bytes = 0;
    /// @}

    /// @name GMMU (Fig 21)
    /// @{
    std::uint64_t gmmu_local_walks = 0;
    std::uint64_t gmmu_remote_walks = 0;
    std::uint64_t gmmu_coalesced = 0;
    /// @}

    /// @name Driver / migration
    /// @{
    std::uint64_t coalesced_pages = 0;
    std::uint64_t mapped_pages = 0;
    std::uint64_t migrations = 0;
    /// @}

    /** Per-tenant rows (scenario-engine runs only), pid order. */
    std::vector<TenantMetrics> tenants;

    /** Fraction of translation misses served without the IOMMU. */
    double
    intraMcmFraction() const
    {
        std::uint64_t served = local_calc_hits + remote_hits;
        std::uint64_t total = served + ats_packets;
        return total ? static_cast<double>(served) / total : 0.0;
    }

    /** Field-wise equality (used by determinism assertions). */
    friend bool operator==(const RunMetrics &, const RunMetrics &) = default;
};

/** The RunMetrics schema in sweep-CSV column order: each field's CSV
 *  column (null: none) and the registry stat System::run reads it from
 *  (null: derived by hand; absent component: left 0). */
struct MetricField
{
    const char *column;
    std::variant<std::string RunMetrics::*, std::uint64_t RunMetrics::*,
                 double RunMetrics::*>
        field;
    const char *stat = nullptr;
    const char *minus = nullptr; ///< a count subtracted from @c stat
};

inline const MetricField kMetricFields[] = {
    {"config", &RunMetrics::config},
    {"app", &RunMetrics::app},
    {"runtime", &RunMetrics::runtime},
    {"accesses", &RunMetrics::accesses},
    {"instructions", &RunMetrics::instructions},
    {"l2_tlb_hits", &RunMetrics::l2_tlb_hits, "gpu*.l2tlb.accesses",
     "gpu*.l2tlb.misses"},
    {"l2_tlb_misses", &RunMetrics::l2_tlb_misses, "gpu*.l2tlb.misses"},
    {"l2_mpki", &RunMetrics::l2_mpki},
    {"mshr_retries", &RunMetrics::mshr_retries, "gpu*.l2tlb.mshr_retries"},
    {"ats_packets", &RunMetrics::ats_packets, "iommu.ats_requests"},
    {"walks", &RunMetrics::walks, "iommu.walks"},
    {"iommu_coalesced", &RunMetrics::iommu_coalesced,
     "iommu.pec_calculated"},
    {"iommu_tlb_hits", &RunMetrics::iommu_tlb_hits, "iommu.tlb_hits"},
    {"avg_ats_time", &RunMetrics::avg_ats_time,
     "iommu.avg_processing_cycles"},
    {nullptr, &RunMetrics::avg_pw_queue_depth, "iommu.avg_pw_queue_depth"},
    {"local_calc_hits", &RunMetrics::local_calc_hits,
     "fbarre.local_calc_hits"},
    {"remote_probes", &RunMetrics::remote_probes, "fbarre.remote_probes"},
    {"remote_hits", &RunMetrics::remote_hits, "fbarre.remote_hits"},
    {"fbarre_fallbacks", &RunMetrics::fbarre_fallbacks, "fbarre.fallbacks"},
    {nullptr, &RunMetrics::lcf_positives, "fbarre.lcf_positives"},
    {nullptr, &RunMetrics::lcf_true_positives, "fbarre.lcf_true_positives"},
    {"filter_updates", &RunMetrics::filter_updates, "fbarre.filter_updates"},
    {"local_data", &RunMetrics::local_data, "gpu*.data.local"},
    {"remote_data", &RunMetrics::remote_data, "gpu*.data.remote"},
    {"noc_bytes", &RunMetrics::noc_bytes, "noc.bytes"},
    {"pcie_up_bytes", &RunMetrics::pcie_up_bytes, "pcie.up_bytes"},
    {"pcie_down_bytes", &RunMetrics::pcie_down_bytes, "pcie.down_bytes"},
    {"gmmu_local_walks", &RunMetrics::gmmu_local_walks, "gmmu.local_walks"},
    {"gmmu_remote_walks", &RunMetrics::gmmu_remote_walks,
     "gmmu.remote_walks"},
    {"gmmu_coalesced", &RunMetrics::gmmu_coalesced, "gmmu.pec_calculated"},
    {"coalesced_pages", &RunMetrics::coalesced_pages,
     "driver.coalesced_pages"},
    {"mapped_pages", &RunMetrics::mapped_pages, "driver.mapped_pages"},
    {"migrations", &RunMetrics::migrations, "migration.count"},
};

/** Geometric mean of speedups (paper-style averaging). */
double geomean(const std::vector<double> &xs);

} // namespace barre

