/**
 * @file
 * Fig 27a: Barre Chord under GPU multi-programming. Pairs of apps with
 * different IOMMU intensities run concurrently with fine-grained
 * CTA-level sharing. Paper: +17% average; Mid-Mid peaks at +34.7%.
 */

#include "bench/common.hh"

namespace barre::bench
{

namespace
{

struct Pair
{
    std::string label;
    std::string a, b;
};

// One representative pair per intensity combination.
const std::vector<Pair> kPairs{
    {"Low-Low", "fft", "pr"},     {"Low-Mid", "pr", "cov"},
    {"Low-High", "fft", "matr"},  {"Mid-Mid", "cov", "atax"},
    {"Mid-High", "atax", "gups"}, {"High-High", "matr", "bicg"},
};

void
printMultiApp(const ResultStore &store)
{
    TextTable table({"pair", "apps", "F-Barre speedup"});
    std::vector<double> speed;
    for (const Pair &p : kPairs) {
        const std::string apps = p.a + "+" + p.b;
        const RunMetrics *base = store.get("baseline", apps);
        const RunMetrics *fb = store.get("F-Barre", apps);
        double s = static_cast<double>(base->runtime) /
                   static_cast<double>(fb->runtime);
        speed.push_back(s);
        table.addRow({p.label, apps, fmt(s)});
    }
    table.addRow({"geomean", "-", fmt(geomean(speed))});
    table.print("Fig 27a: multi-programmed pairs");
    std::printf("\npaper: +17%% average; Mid-Mid highest (+34.7%%); "
                "Low-Low and High-High smallest.\n");
}

} // namespace

Figure
fig27aMultiapp(double scale)
{
    std::vector<ScenarioSpec> specs;
    for (const Pair &p : kPairs)
        specs.push_back(ScenarioSpec::pair(p.a, p.b));
    return {"fig27a_multiapp",
            {{{{"baseline", SystemConfig::baselineAts()},
               {"F-Barre", SystemConfig::fbarreCfg(2)}},
              specs,
              scale}},
            printMultiApp};
}

} // namespace barre::bench
