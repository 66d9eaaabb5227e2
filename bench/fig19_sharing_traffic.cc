/**
 * @file
 * Fig 19: overhead of the coalescing-information-sharing traffic.
 * Compares F-Barre against an oracle where peer messages take a fixed
 * latency without consuming interconnect resources. Paper: F-Barre
 * achieves over 80% of the oracle's performance.
 */

#include "bench/common.hh"

namespace barre::bench
{

Figure
fig19SharingTraffic(double scale)
{
    SystemConfig real = SystemConfig::fbarreCfg(2);
    SystemConfig oracle = real;
    oracle.fbarre.oracle_sharing = true;

    std::vector<NamedConfig> configs{{"F-Barre", real},
                                     {"Oracle", oracle}};
    const auto &apps = standardSuite();
    auto print = [apps](const ResultStore &store) {
        TextTable table({"app", "achieved % of oracle"});
        std::vector<double> fracs;
        for (const auto &app : apps) {
            const RunMetrics *r = store.get("F-Barre", app.name);
            const RunMetrics *o = store.get("Oracle", app.name);
            double frac = 100.0 * static_cast<double>(o->runtime) /
                          static_cast<double>(r->runtime);
            fracs.push_back(frac / 100.0);
            table.addRow({app.name, fmt(frac, 1)});
        }
        table.addRow({"geomean", fmt(100.0 * geomean(fracs), 1)});
        table.print("Fig 19: peer-sharing traffic overhead");
        std::printf("\npaper: F-Barre achieves >80%% of the oracle.\n");
    };
    return {"fig19_sharing_traffic", {{configs, soloSpecs(apps), scale}},
            print};
}

} // namespace barre::bench
