/**
 * @file
 * Fig 17a: F-Barre filter accuracy - remote hit rate (probes a peer
 * could actually serve) and LCF true-positive rate.
 *
 * Paper: 75.3% remote hit rate, 98.4% local (LCF) hit rate; RCFs are
 * lower because the best-effort updates can be stale.
 */

#include "bench/common.hh"

namespace barre::bench
{

Figure
fig17aFilterHits(double scale)
{
    std::vector<NamedConfig> configs{{"F-Barre",
                                      SystemConfig::fbarreCfg(2)}};
    const auto &apps = standardSuite();
    auto print = [apps](const ResultStore &store) {
        TextTable table({"app", "remote probes", "remote hit %",
                         "LCF positives", "LCF true-positive %"});
        std::vector<double> remote_rates, local_rates;
        for (const auto &app : apps) {
            const RunMetrics *m = store.get("F-Barre", app.name);
            double rhit = m->remote_probes
                              ? 100.0 * m->remote_hits / m->remote_probes
                              : 0;
            double lhit = m->lcf_positives
                              ? 100.0 * m->lcf_true_positives /
                                    m->lcf_positives
                              : 0;
            if (m->remote_probes > 0)
                remote_rates.push_back(rhit);
            if (m->lcf_positives > 0)
                local_rates.push_back(lhit);
            table.addRow({app.name, std::to_string(m->remote_probes),
                          fmt(rhit, 1), std::to_string(m->lcf_positives),
                          fmt(lhit, 1)});
        }
        auto mean = [](const std::vector<double> &v) {
            double s = 0;
            for (double x : v)
                s += x;
            return v.empty() ? 0 : s / static_cast<double>(v.size());
        };
        table.addRow({"average", "-", fmt(mean(remote_rates), 1), "-",
                      fmt(mean(local_rates), 1)});
        table.print("Fig 17a: remote (RCF) and local (LCF) filter hits");
        std::printf("\npaper: 75.3%% remote, 98.4%% local.\n");
    };
    return {"fig17a_filter_hits", {{configs, soloSpecs(apps), scale}}, print};
}

} // namespace barre::bench
