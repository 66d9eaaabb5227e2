/**
 * @file
 * Fig 20: F-Barre speedup on 2/4/8/16-chiplet MCM-GPUs.
 *
 * Paper: 1.54x / 1.86x / 2.04x / 2.31x; st2d, matr, gups, spmv scale
 * almost linearly because F-Barre relieves the growing PCIe and PTW
 * contention.
 */

#include "bench/common.hh"

namespace barre::bench
{

Figure
fig20Chiplets(double scale)
{
    // The paper highlights these plus low/mid picks; keep the sweep
    // affordable with a class-balanced subset.
    std::vector<AppParams> apps{appByName("pr"),   appByName("cov"),
                                appByName("st2d"), appByName("matr"),
                                appByName("gups"), appByName("spmv")};
    const auto specs = soloSpecs(apps);
    std::vector<Grid> grids;
    for (std::uint32_t n : {2u, 4u, 8u, 16u}) {
        SystemConfig base = SystemConfig::baselineAts();
        base.chiplets = n;
        SystemConfig fb = SystemConfig::fbarreCfg(n <= 4 ? 2 : 1);
        fb.chiplets = n;
        // Weak scaling: keep the per-chiplet load constant, so larger
        // packages put proportionally more pressure on the shared PCIe
        // and PTWs (the contention Fig 20 is about).
        grids.push_back({{{"base-" + std::to_string(n), base},
                          {"fbarre-" + std::to_string(n), fb}},
                         specs,
                         scale * (static_cast<double>(n) / 4.0)});
    }
    auto print = [apps](const ResultStore &store) {
        store.printPairTable("Fig 20: F-Barre speedup vs chiplet count",
                             {"app", "2-chip", "4-chip", "8-chip", "16-chip"},
                             {"2", "4", "8", "16"}, apps);
        std::printf("\npaper: 1.54x / 1.86x / 2.04x / 2.31x for 2/4/8/16 "
                    "chiplets.\n");
    };
    return {"fig20_chiplets", grids, print};
}

} // namespace barre::bench
