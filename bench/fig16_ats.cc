/**
 * @file
 * Fig 16: ATS handling efficiency.
 *  (a) average ATS processing-time reduction (Barre -12.6%, F-Barre
 *      -28% in the paper),
 *  (b) fraction of IOMMU translations served by PEC calculation
 *      (Barre 58%, F-Barre 32% - lower for F-Barre because most
 *      coalescing happens inside the package),
 *  (c) ATS packet-traffic reduction (F-Barre -53% avg, up to -99%).
 */

#include "bench/common.hh"

namespace barre::bench
{

Figure
fig16Ats(double scale)
{
    std::vector<NamedConfig> configs{
        {"baseline", SystemConfig::baselineAts()},
        {"Barre", SystemConfig::barreCfg()},
        {"F-Barre", SystemConfig::fbarreCfg(2)},
    };
    const auto &apps = standardSuite();
    auto print = [apps](const ResultStore &store) {
        TextTable table({"app", "ats-time -% (Barre)", "ats-time -% (F-B)",
                         "coalesced% (Barre)", "coalesced% (F-B)",
                         "traffic -% (F-B)"});
        std::vector<double> dt_b, dt_f, co_b, co_f, tr_f;
        for (const auto &app : apps) {
            const RunMetrics *base = store.get("baseline", app.name);
            const RunMetrics *b = store.get("Barre", app.name);
            const RunMetrics *f = store.get("F-Barre", app.name);
            auto pct = [](double x) { return 100.0 * x; };
            double tb = base->avg_ats_time > 0
                            ? pct(1.0 - b->avg_ats_time / base->avg_ats_time)
                            : 0;
            double tf = base->avg_ats_time > 0
                            ? pct(1.0 - f->avg_ats_time / base->avg_ats_time)
                            : 0;
            double cb = b->ats_packets
                            ? pct(static_cast<double>(b->iommu_coalesced) /
                                  b->ats_packets)
                            : 0;
            double cf = f->ats_packets
                            ? pct(static_cast<double>(f->iommu_coalesced) /
                                  f->ats_packets)
                            : 0;
            double rf = base->ats_packets
                            ? pct(1.0 - static_cast<double>(f->ats_packets) /
                                            base->ats_packets)
                            : 0;
            dt_b.push_back(tb);
            dt_f.push_back(tf);
            co_b.push_back(cb);
            co_f.push_back(cf);
            tr_f.push_back(rf);
            table.addRow({app.name, fmt(tb, 1), fmt(tf, 1), fmt(cb, 1),
                          fmt(cf, 1), fmt(rf, 1)});
        }
        auto mean = [](const std::vector<double> &v) {
            double s = 0;
            for (double x : v)
                s += x;
            return s / static_cast<double>(v.size());
        };
        table.addRow({"average", fmt(mean(dt_b), 1), fmt(mean(dt_f), 1),
                      fmt(mean(co_b), 1), fmt(mean(co_f), 1),
                      fmt(mean(tr_f), 1)});
        table.print("Fig 16: ATS processing time / coalescing / traffic");
        std::printf("\npaper: (a) -12.6%% / -28%%; (b) 58%% / 32%%; (c) "
                    "-53%% avg (up to -99%%).\n");
    };
    return {"fig16_ats", {{configs, soloSpecs(apps), scale}}, print};
}

} // namespace barre::bench
