/**
 * @file
 * Fig 18: speedup breakdown of F-Barre's two optimizations over Barre:
 * coalescing-aware PTW scheduling alone (paper: 1.34x) and with peer
 * coalescing-information sharing (paper: 1.80x).
 */

#include "bench/common.hh"

namespace barre::bench
{

Figure
fig18Breakdown(double scale)
{
    SystemConfig barre = SystemConfig::barreCfg();

    // Barre + coalescing-aware PTW scheduling only.
    SystemConfig sched = SystemConfig::fbarreCfg(1);
    sched.fbarre.peer_sharing = false;
    sched.iommu.coal_aware_sched = true;

    // Barre + peer sharing only (no scheduler change).
    SystemConfig peer = SystemConfig::fbarreCfg(1);
    peer.fbarre.peer_sharing = true;
    peer.iommu.coal_aware_sched = false;

    SystemConfig full = SystemConfig::fbarreCfg(1);

    std::vector<NamedConfig> configs{{"Barre", barre},
                                     {"+PTW-sched", sched},
                                     {"+peer-sharing", peer},
                                     {"F-Barre", full}};
    const auto specs = soloSpecs(standardSuite());
    auto print = [specs](const ResultStore &store) {
        store.printSpeedupTable("Fig 18: F-Barre speedup breakdown", "Barre",
                                {"+PTW-sched", "+peer-sharing", "F-Barre"},
                                specs);
        std::printf("\npaper: PTW scheduling 1.34x over Barre; peer "
                    "sharing lifts it to 1.80x.\n");
    };
    return {"fig18_breakdown", {{configs, specs, scale}}, print};
}

} // namespace barre::bench
