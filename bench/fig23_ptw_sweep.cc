/**
 * @file
 * Fig 23: F-Barre speedup with 8 / 16 / 32 PTWs.
 * Paper: 2.12x / 1.86x / 1.51x - the benefit shrinks as raw PTW
 * parallelism grows, but stays substantial.
 */

#include "bench/common.hh"

namespace barre::bench
{

Figure
fig23PtwSweep(double scale)
{
    std::vector<NamedConfig> configs;
    for (std::uint32_t ptws : {8u, 16u, 32u}) {
        SystemConfig base = SystemConfig::baselineAts();
        base.iommu.ptws = ptws;
        SystemConfig fb = SystemConfig::fbarreCfg(2);
        fb.iommu.ptws = ptws;
        configs.push_back({"base-" + std::to_string(ptws), base});
        configs.push_back({"fbarre-" + std::to_string(ptws), fb});
    }
    const auto &apps = standardSuite();
    auto print = [apps](const ResultStore &store) {
        store.printPairTable("Fig 23: F-Barre speedup vs PTW count",
                             {"app", "8 PTWs", "16 PTWs", "32 PTWs"},
                             {"8", "16", "32"}, apps);
        std::printf("\npaper: 2.12x / 1.86x / 1.51x with 8/16/32 PTWs.\n");
    };
    return {"fig23_ptw_sweep", {{configs, soloSpecs(apps), scale}}, print};
}

} // namespace barre::bench
