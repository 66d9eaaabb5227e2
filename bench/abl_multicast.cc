/**
 * @file
 * Ablation (§IV-B): speculative multicast of calculated PFNs.
 *
 * "Barre can speculatively calculate and send all the other PFNs of the
 * coalescing group to corresponding GPUs upon one translation. However,
 * our experiments show this multicasting drops performance due to the
 * limited outbound bandwidth of IOMMU."
 *
 * This bench reproduces that design-space probe: Barre with
 * pending-only coverage vs Barre with multicast pushes.
 */

#include "bench/common.hh"

namespace barre::bench
{

Figure
ablMulticast(double scale)
{
    SystemConfig barre = SystemConfig::barreCfg();
    SystemConfig mcast = SystemConfig::barreCfg();
    mcast.iommu.multicast = true;

    std::vector<NamedConfig> configs{{"Barre", barre},
                                     {"Barre+multicast", mcast}};
    const auto specs = soloSpecs(standardSuite());
    auto print = [specs](const ResultStore &store) {
        store.printSpeedupTable(
            "Ablation: speculative multicast (§IV-B design probe)", "Barre",
            {"Barre+multicast"}, specs);
        std::printf("\npaper: multicasting drops performance (IOMMU "
                    "outbound bandwidth); pending-only coverage wins.\n");
    };
    return {"abl_multicast", {{configs, specs, scale}}, print};
}

} // namespace barre::bench
