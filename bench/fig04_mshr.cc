/**
 * @file
 * Fig 4: performance impact of the L2 TLB MSHR count.
 *
 * Paper shape: doubling the MSHRs from 16 to 32 buys only ~6% on
 * average - the bottleneck is the IOMMU's ability to *process* misses,
 * not to hold them.
 */

#include "bench/common.hh"

namespace barre::bench
{

Figure
fig04Mshr(double scale)
{
    std::vector<NamedConfig> configs;
    for (std::uint32_t mshrs : {16u, 32u, 64u}) {
        SystemConfig cfg = SystemConfig::baselineAts();
        cfg.chiplet.l2_tlb.mshrs = mshrs;
        configs.push_back({std::to_string(mshrs) + "-MSHR", cfg});
    }
    const auto specs = soloSpecs(standardSuite());
    auto print = [specs](const ResultStore &store) {
        store.printSpeedupTable("Fig 4: speedup vs L2 TLB MSHRs",
                                "16-MSHR", {"32-MSHR", "64-MSHR"}, specs);
        std::printf("\npaper: ~6%% average from doubling MSHRs; most apps "
                    "flat.\n");
    };
    return {"fig04_mshr", {{configs, specs, scale}}, print};
}

} // namespace barre::bench
