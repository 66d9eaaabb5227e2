/**
 * @file
 * Fig 21: Barre Chord on the GMMU-integrated platform (MGvm [41]).
 *
 * Paper: Barre Chord improves MGvm by 1.28x on average and removes over
 * 30% of the remote page-table walks.
 */

#include "bench/common.hh"

namespace barre::bench
{

Figure
fig21Gmmu(double scale)
{
    SystemConfig mgvm = SystemConfig::baselineAts();
    mgvm.use_gmmu = true;
    SystemConfig mgvm_bc = SystemConfig::fbarreCfg(2);
    mgvm_bc.use_gmmu = true;

    std::vector<NamedConfig> configs{{"MGvm", mgvm},
                                     {"MGvm+BarreChord", mgvm_bc}};
    const auto &apps = standardSuite();
    auto print = [apps](const ResultStore &store) {
        TextTable table({"app", "speedup", "remote-walk -%"});
        std::vector<double> speed, rw;
        for (const auto &app : apps) {
            const RunMetrics *b = store.get("MGvm", app.name);
            const RunMetrics *f = store.get("MGvm+BarreChord", app.name);
            double s = static_cast<double>(b->runtime) /
                       static_cast<double>(f->runtime);
            double drop =
                b->gmmu_remote_walks
                    ? 100.0 * (1.0 - static_cast<double>(
                                         f->gmmu_remote_walks) /
                                         b->gmmu_remote_walks)
                    : 0;
            speed.push_back(s);
            rw.push_back(drop);
            table.addRow({app.name, fmt(s), fmt(drop, 1)});
        }
        double rw_mean = 0;
        for (double x : rw)
            rw_mean += x;
        rw_mean /= static_cast<double>(rw.size());
        table.addRow({"geomean/avg", fmt(geomean(speed)), fmt(rw_mean, 1)});
        table.print("Fig 21: MGvm vs MGvm + Barre Chord");
        std::printf("\npaper: 1.28x average speedup; >30%% fewer remote "
                    "walks.\n");
    };
    return {"fig21_gmmu", {{configs, soloSpecs(apps), scale}}, print};
}

} // namespace barre::bench
