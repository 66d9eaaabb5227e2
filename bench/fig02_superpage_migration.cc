/**
 * @file
 * Fig 2: 2 MB super pages under runtime migration, vs 4 KB pages.
 *
 * Paper shape: several apps gain a little, but migration-heavy apps
 * (fwt, matr) drop significantly - a 2 MB migration ping-pongs far more
 * data and coarsens placement, inflating remote accesses.
 */

#include "bench/common.hh"

namespace barre::bench
{

Figure
fig02SuperpageMigration(double scale)
{
    SystemConfig small = SystemConfig::baselineAts();
    small.migration.enabled = true;
    SystemConfig super = small;
    super.page_size = PageSize::size2m;

    std::vector<NamedConfig> configs{{"4KB+mig", small},
                                     {"2MB+mig", super}};
    const auto specs = soloSpecs(standardSuite());
    auto print = [specs](const ResultStore &store) {
        store.printSpeedupTable(
            "Fig 2: 2MB super page speedup under migration",
            "4KB+mig", {"2MB+mig"}, specs);
        std::printf("\npaper: fwt and matr drop well below 1x; average is "
                    "modest.\n");
    };
    return {"fig02_superpage_migration", {{configs, specs, scale}}, print};
}

} // namespace barre::bench
