/**
 * @file
 * Fig 24: F-Barre with 64 KB and 2 MB pages.
 * Left: original inputs (paper: +2.5% / +0.12% - footprints are small
 * relative to the enlarged pages). Right: inputs scaled 16x on a
 * class-balanced subset (paper: +67% / +2%).
 */

#include "bench/common.hh"

namespace barre::bench
{

namespace
{

/**
 * One panel's grid. A non-empty @p suffix marks both the panel's
 * config names and its apps, which run under "<app><suffix>" so the
 * resized inputs never shadow the suite apps other figures run.
 */
Grid
panelGrid(const std::string &suffix, std::vector<AppParams> apps,
          double scale, std::uint64_t mem_per_chiplet)
{
    std::vector<NamedConfig> configs;
    for (PageSize ps : {PageSize::size4k, PageSize::size64k,
                        PageSize::size2m}) {
        std::string tag = ps == PageSize::size4k    ? "4K"
                          : ps == PageSize::size64k ? "64K"
                                                    : "2M";
        SystemConfig base = SystemConfig::baselineAts();
        base.page_size = ps;
        base.mem_bytes_per_chiplet = mem_per_chiplet;
        SystemConfig fb = SystemConfig::fbarreCfg(2);
        fb.page_size = ps;
        fb.mem_bytes_per_chiplet = mem_per_chiplet;
        configs.push_back({"base-" + tag + suffix, base});
        configs.push_back({"fbarre-" + tag + suffix, fb});
    }
    for (auto &a : apps)
        a.name += suffix;
    return {configs, soloSpecs(apps), scale};
}

} // namespace

Figure
fig24PageSize(double scale)
{
    const auto &apps = standardSuite();

    // Right panel: 16x inputs on the class-balanced subset. More
    // memory per chiplet so the footprints fit.
    std::vector<AppParams> big;
    for (const auto &a : scaledSubset())
        big.push_back(a.scaled(16.0));

    auto print = [apps, big](const ResultStore &store) {
        const std::vector<std::string> headers{"app", "4KB", "64KB", "2MB"};
        const std::vector<std::string> tags{"4K", "64K", "2M"};
        store.printPairTable("Fig 24 (left): F-Barre speedup vs page size",
                             headers, tags, apps);
        store.printPairTable(
            "Fig 24 (right): 16x inputs, class-balanced subset", headers,
            tags, big, "-16x");
        std::printf("\npaper: left +2.5%% (64KB) / +0.12%% (2MB); right "
                    "+67%% / +2%%.\n");
    };
    return {"fig24_page_size",
            {panelGrid("", apps, scale, std::uint64_t{2} << 30),
             panelGrid("-16x", big, scale * 0.25, std::uint64_t{8} << 30)},
            print};
}

} // namespace barre::bench
