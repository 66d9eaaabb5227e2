/**
 * @file
 * Fig 25: Barre Chord (4 KB pages) head-to-head against 2 MB super
 * pages, both with runtime migration enabled.
 *
 * Paper: Barre Chord wins by 1.22x on average; fft favours the super
 * page (linear accesses), while pr and fwt favour Barre Chord by >2x.
 */

#include "bench/common.hh"

namespace barre::bench
{

Figure
fig25VsSuperpage(double scale)
{
    SystemConfig super = SystemConfig::baselineAts();
    super.page_size = PageSize::size2m;
    super.migration.enabled = true;

    SystemConfig bc = SystemConfig::fbarreCfg(2);
    bc.migration.enabled = true;

    std::vector<NamedConfig> configs{{"SuperPage-2MB", super},
                                     {"BarreChord-4KB", bc}};
    const auto specs = soloSpecs(standardSuite());
    auto print = [specs](const ResultStore &store) {
        store.printSpeedupTable(
            "Fig 25: Barre Chord (4KB) vs super page (2MB), migration on",
            "SuperPage-2MB", {"BarreChord-4KB"}, specs);
        std::printf("\npaper: 1.22x average for Barre Chord; fft favours "
                    "super pages; pr and fwt exceed 2x.\n");
    };
    return {"fig25_vs_superpage", {{configs, specs, scale}}, print};
}

} // namespace barre::bench
