/**
 * @file
 * Fig 17b: F-Barre speedup with 512- and 1024-row cuckoo filters,
 * normalized to 256 rows. Paper: +3% / +6% on average.
 */

#include "bench/common.hh"

namespace barre::bench
{

Figure
fig17bFilterSize(double scale)
{
    std::vector<NamedConfig> configs;
    for (std::uint32_t rows : {256u, 512u, 1024u}) {
        SystemConfig cfg = SystemConfig::fbarreCfg(2);
        cfg.fbarre.filter.rows = rows;
        configs.push_back({std::to_string(rows) + "-row", cfg});
    }
    const auto specs = soloSpecs(standardSuite());
    auto print = [specs](const ResultStore &store) {
        store.printSpeedupTable("Fig 17b: filter size sensitivity",
                                "256-row", {"512-row", "1024-row"}, specs);
        std::printf("\npaper: +3%% with 512 rows, +6%% with 1024 rows.\n");
    };
    return {"fig17b_filter_size", {{configs, specs, scale}}, print};
}

} // namespace barre::bench
