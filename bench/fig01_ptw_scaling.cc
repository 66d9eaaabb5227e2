/**
 * @file
 * Fig 1: baseline speedup with 8, 16, 32, and infinite PTWs.
 *
 * Paper shape: near-linear speedup up to 32 PTWs for most apps, but the
 * infinite-PTW speedup saturates around 2x - queueing is removed, the
 * remaining walk + PCIe latency is not.
 */

#include "bench/common.hh"

namespace barre::bench
{

Figure
fig01PtwScaling(double scale)
{
    std::vector<NamedConfig> configs;
    for (std::uint32_t ptws : {8u, 16u, 32u, 0u}) {
        SystemConfig cfg = SystemConfig::baselineAts();
        cfg.iommu.ptws = ptws;
        configs.push_back(
            {ptws == 0 ? "inf-PTW" : std::to_string(ptws) + "-PTW", cfg});
    }
    const auto specs = soloSpecs(standardSuite());
    auto print = [specs](const ResultStore &store) {
        store.printSpeedupTable("Fig 1: speedup vs number of PTWs", "8-PTW",
                                {"16-PTW", "32-PTW", "inf-PTW"}, specs);
        std::printf("\npaper: near-linear to 32 PTWs; infinite saturates "
                    "around 2x.\n");
    };
    return {"fig01_ptw_scaling", {{configs, specs, scale}}, print};
}

} // namespace barre::bench
