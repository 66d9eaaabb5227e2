/**
 * @file
 * Ablation (§VI, Support for on-demand paging): pages are mapped at
 * first touch instead of at allocation. Under Barre Chord, faults
 * fetch whole coalescing groups ("pages in the same coalescing group
 * tend to be accessed at similar times"), cutting the fault count by
 * roughly the group size and keeping calculation-based translation
 * effective.
 */

#include "bench/common.hh"

namespace barre::bench
{

Figure
ablDemandPaging(double scale)
{
    SystemConfig base = SystemConfig::baselineAts();
    base.driver.demand_paging = true;
    SystemConfig fb = SystemConfig::fbarreCfg(2);
    fb.driver.demand_paging = true;

    std::vector<NamedConfig> configs{{"demand-baseline", base},
                                     {"demand-BarreChord", fb}};
    std::vector<AppParams> apps{appByName("fft"), appByName("pr"),
                                appByName("cov"), appByName("atax"),
                                appByName("matr"), appByName("gups")};
    const auto specs = soloSpecs(apps);
    auto print = [specs](const ResultStore &store) {
        store.printSpeedupTable(
            "Ablation: on-demand paging (group-unit fault-in)",
            "demand-baseline", {"demand-BarreChord"}, specs);
        std::printf("\nexpectation: Barre Chord amortizes faults over "
                    "whole coalescing groups and keeps its translation "
                    "wins.\n");
    };
    return {"abl_demand_paging", {{configs, specs, scale}}, print};
}

} // namespace barre::bench
