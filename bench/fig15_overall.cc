/**
 * @file
 * Fig 15: overall performance comparison.
 *
 * Columns: Valkyrie [8], Least [27], Barre, F-Barre-NoMerge,
 * F-Barre-2Merge, F-Barre-4Merge, over the plain-ATS baseline.
 *
 * Paper shape: Barre beats Valkyrie/Least by ~10-12.8%; F-Barre-NoMerge
 * reaches 1.36x over Least; 2/4-way merging scales further (1.34x /
 * 1.53x over F-Barre-NoMerge on average).
 */

#include "bench/common.hh"

namespace barre::bench
{

Figure
fig15Overall(double scale)
{
    SystemConfig fb1 = SystemConfig::fbarreCfg(1);
    SystemConfig fb2 = SystemConfig::fbarreCfg(2);
    SystemConfig fb4 = SystemConfig::fbarreCfg(4);
    std::vector<NamedConfig> configs{
        {"baseline", SystemConfig::baselineAts()},
        {"Valkyrie", SystemConfig::valkyrieCfg()},
        {"Least", SystemConfig::leastCfg()},
        {"Barre", SystemConfig::barreCfg()},
        {"F-Barre-NoMerge", fb1},
        {"F-Barre-2Merge", fb2},
        {"F-Barre-4Merge", fb4},
    };
    const auto specs = soloSpecs(standardSuite());
    auto print = [specs](const ResultStore &store) {
        store.printSpeedupTable(
            "Fig 15: overall performance", "baseline",
            {"Valkyrie", "Least", "Barre", "F-Barre-NoMerge",
             "F-Barre-2Merge", "F-Barre-4Merge"},
            specs);
        store.printSpeedupTable(
            "Fig 15 (paper normalization)", "Least",
            {"Barre", "F-Barre-NoMerge", "F-Barre-2Merge",
             "F-Barre-4Merge"},
            specs);
        std::printf("\npaper: Barre ~1.128x over Least; F-Barre-NoMerge "
                    "1.36x over Least; 2/4-merge add 1.34x/1.53x over "
                    "F-Barre-NoMerge.\n");
    };
    return {"fig15_overall", {{configs, specs, scale}}, print};
}

} // namespace barre::bench
