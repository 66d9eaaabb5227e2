/**
 * @file
 * Fig 27b: Barre Chord combined with a 2048-entry, 200-cycle IOMMU TLB.
 * Paper: F-Barre still gains 1.22x on average (up to 2.35x) on top of
 * the IOMMU TLB.
 */

#include "bench/common.hh"

namespace barre::bench
{

Figure
fig27bIommuTlb(double scale)
{
    SystemConfig base = SystemConfig::baselineAts();
    base.iommu.tlb_enabled = true;
    SystemConfig fb = SystemConfig::fbarreCfg(2);
    fb.iommu.tlb_enabled = true;

    std::vector<NamedConfig> configs{{"IOMMU-TLB", base},
                                     {"IOMMU-TLB+F-Barre", fb}};
    const auto specs = soloSpecs(standardSuite());
    auto print = [specs](const ResultStore &store) {
        store.printSpeedupTable("Fig 27b: F-Barre with an IOMMU TLB",
                                "IOMMU-TLB", {"IOMMU-TLB+F-Barre"}, specs);
        std::printf("\npaper: 1.22x average (up to 2.35x).\n");
    };
    return {"fig27b_iommu_tlb", {{configs, specs, scale}}, print};
}

} // namespace barre::bench
