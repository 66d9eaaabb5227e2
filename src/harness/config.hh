/**
 * @file
 * Whole-system configuration (Table II defaults) and the named
 * translation configurations the evaluation compares.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "baselines/least.hh"
#include "baselines/valkyrie.hh"
#include "driver/gpu_driver.hh"
#include "driver/migration.hh"
#include "gpu/chiplet.hh"
#include "gpu/cu.hh"
#include "gpu/fbarre_service.hh"
#include "iommu/gmmu.hh"
#include "iommu/iommu.hh"
#include "noc/interconnect.hh"
#include "noc/pcie.hh"

namespace barre
{

/** Which translation scheme the system runs. */
enum class TranslationMode
{
    baseline, ///< private TLBs, plain ATS to the IOMMU
    valkyrie, ///< inter-L1 sharing + L2 TLB prefetch (PACT'20)
    least,    ///< inter-chiplet L2 sharing + spilling (MICRO'21)
    barre,    ///< Barre: IOMMU-side PEC coalescing
    fbarre,   ///< Full Barre: + intra-MCM translation + PTW scheduling
};

std::string to_string(TranslationMode m);

struct SystemConfig
{
    std::uint32_t chiplets = 4;
    std::uint32_t cus_per_chiplet = 64; ///< 4 SAs x 16 CUs
    std::uint64_t mem_bytes_per_chiplet = std::uint64_t{2} << 30;
    PageSize page_size = PageSize::size4k;

    ChipletParams chiplet{};
    CuParams cu{};
    InterconnectParams noc{};
    PcieParams pcie{};
    IommuParams iommu{};
    DriverParams driver{};
    MigrationParams migration{};

    bool use_gmmu = false;
    GmmuParams gmmu{};

    TranslationMode mode = TranslationMode::baseline;
    FBarreParams fbarre{};
    ValkyrieParams valkyrie{};
    LeastParams least{};

    /** The Fig 5/6 hypothetical package-shared L2 TLB (4x entries). */
    bool shared_l2_tlb = false;
    /** Link/sizing parameters for the shared-TLB service block. */
    SharedTlbParams shared_tlb{};

    /** Workload sizing multiplier for quick tests. */
    double workload_scale = 1.0;

    /**
     * Check every translation response against the page table (panics
     * on mismatch). Ignored when migration is enabled, where in-flight
     * responses may legitimately race a migration.
     */
    bool validate_translations = false;

    /**
     * Conservative-PDES partitioning: number of event domains to split
     * the simulation into. 0 (default) and 1 both run one domain: the
     * serial run, which drains in a single epoch of the scheduler loop
     * and is the reference every multi-domain run is proven
     * bitwise-identical to. >= 2 gives the host its own domain and
     * round-robins chiplets over the rest. Clamped to chiplets + 1.
     * Every configuration System accepts partitions; demand paging and
     * migration are IOMMU-platform only (fatal with use_gmmu).
     */
    std::uint32_t sim_domains = 0;

    /**
     * Worker threads advancing the domains (0 = defaultWorkers());
     * clamped to the domain count and to defaultWorkers(), because
     * barrier-coupled workers must not outnumber the cores. The
     * thread count never affects results, only wall time.
     */
    std::uint32_t sim_threads = 0;

    /**
     * Ignored: partitioned runs always use the epoch scheduler. Kept
     * only because the repo benchmark still assigns it; the next
     * change to the benchmark removes it.
     */
    bool sim_async = true;

    bool operator==(const SystemConfig &) const = default;

    /// @name Named configurations used throughout the evaluation
    /// @{
    static SystemConfig baselineAts();
    static SystemConfig valkyrieCfg();
    static SystemConfig leastCfg();
    static SystemConfig barreCfg();
    /** merge_limit 1 = F-Barre-NoMerge, 2/4 = F-Barre-2/4Merge. */
    static SystemConfig fbarreCfg(std::uint32_t merge_limit = 2);
    /// @}

    /** Apply mode-implied parameter couplings; called by the System. */
    void normalize();
};

/**
 * An immutable, shareable configuration. One frozen handle can back any
 * number of concurrently running Systems (runMany builds thousands of
 * cells from a few named configs); const-ness makes the sharing safe by
 * construction.
 */
using SystemConfigHandle = std::shared_ptr<const SystemConfig>;

/**
 * The config of a front-end mode name, one meaning for every tool:
 * baseline, valkyrie, least, barre, fbarre (F-Barre-2Merge, as
 * fbarreCfg()) or fbarre4 (F-Barre-4Merge); any other name is fatal.
 */
SystemConfig configForMode(const std::string &name);

/** Normalize @p cfg and freeze it into an immutable shared handle. */
SystemConfigHandle freezeConfig(SystemConfig cfg);

} // namespace barre

