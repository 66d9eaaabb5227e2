/**
 * @file
 * Ablation: fixed 500-cycle walks (the paper's Table II configuration)
 * vs timed 4-level walks through a page-walk cache. Checks that the
 * headline F-Barre speedup is robust to the walk-latency model.
 */

#include "bench/common.hh"

namespace barre::bench
{

Figure
ablWalkModel(double scale)
{
    std::vector<NamedConfig> configs;
    for (bool timed : {false, true}) {
        SystemConfig base = SystemConfig::baselineAts();
        base.iommu.timed_walks = timed;
        SystemConfig fb = SystemConfig::fbarreCfg(2);
        fb.iommu.timed_walks = timed;
        std::string tag = timed ? "timed" : "fixed500";
        configs.push_back({"base-" + tag, base});
        configs.push_back({"fbarre-" + tag, fb});
    }
    // A class-balanced subset keeps the ablation affordable.
    std::vector<AppParams> apps{appByName("fft"), appByName("pr"),
                                appByName("cov"), appByName("atax"),
                                appByName("matr"), appByName("gups")};
    auto print = [apps](const ResultStore &store) {
        store.printPairTable("Ablation: walk-latency model",
                             {"app", "F-Barre speedup (fixed 500cy)",
                              "F-Barre speedup (timed walks + PWC)"},
                             {"fixed500", "timed"}, apps);
        std::printf("\nexpectation: the F-Barre advantage persists under "
                    "both walk models.\n");
    };
    return {"abl_walk_model", {{configs, soloSpecs(apps), scale}}, print};
}

} // namespace barre::bench
