/**
 * @file
 * Table I: the benchmark suite's L2 TLB MPKI under the baseline.
 *
 * We report the measured MPKI of each synthetic app model next to the
 * paper's value. Absolute numbers differ (our runs are short, so
 * compulsory misses weigh more, and the apps are synthetic models);
 * what must hold is the low / mid / high banding and the ordering.
 */

#include "bench/common.hh"

namespace barre::bench
{

Figure
tab1Mpki(double scale)
{
    std::vector<NamedConfig> configs{{"baseline",
                                      SystemConfig::baselineAts()}};
    const auto &apps = standardSuite();
    auto print = [apps](const ResultStore &store) {
        TextTable table({"app", "full name", "class", "paper MPKI",
                         "measured MPKI"});
        for (const auto &app : apps) {
            const RunMetrics *m = store.get("baseline", app.name);
            table.addRow({app.name, app.full_name, app.category,
                          fmt(app.paper_mpki), m ? fmt(m->l2_mpki) : "-"});
        }
        table.print("Table I: L2 TLB MPKI per application");
        std::printf("\npaper: classes low (<1), mid (2.27-46.9), high "
                    "(>174); banding and ordering should hold.\n");
    };
    return {"tab1_mpki", {{configs, soloSpecs(apps), scale}}, print};
}

} // namespace barre::bench
