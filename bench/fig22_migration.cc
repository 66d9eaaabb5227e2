/**
 * @file
 * Fig 22: Barre Chord under runtime page migration (ACUD [7],
 * threshold 16). Paper: 1.20x average over plain ACUD.
 */

#include "bench/common.hh"

namespace barre::bench
{

Figure
fig22Migration(double scale)
{
    SystemConfig acud = SystemConfig::baselineAts();
    acud.migration.enabled = true;
    acud.migration.threshold = 16;
    SystemConfig acud_bc = SystemConfig::fbarreCfg(2);
    acud_bc.migration.enabled = true;
    acud_bc.migration.threshold = 16;

    std::vector<NamedConfig> configs{{"ACUD", acud},
                                     {"ACUD+BarreChord", acud_bc}};
    const auto specs = soloSpecs(standardSuite());
    auto print = [specs](const ResultStore &store) {
        store.printSpeedupTable("Fig 22: Barre Chord under page migration",
                                "ACUD", {"ACUD+BarreChord"}, specs);
        std::printf("\npaper: 1.20x average over ACUD.\n");
    };
    return {"fig22_migration", {{configs, specs, scale}}, print};
}

} // namespace barre::bench
