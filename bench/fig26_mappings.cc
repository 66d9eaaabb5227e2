/**
 * @file
 * Fig 26: Barre Chord under other page-mapping policies: round-robin,
 * kernel-wide chunking, and CODA.
 * Paper: 1.25x / 1.48x / 1.62x average speedups - Barre Chord is
 * mapping-policy agnostic as long as data spreads across chiplets.
 */

#include "bench/common.hh"

namespace barre::bench
{

Figure
fig26Mappings(double scale)
{
    std::vector<NamedConfig> configs;
    auto add = [&](MappingPolicyKind k, const std::string &tag) {
        SystemConfig base = SystemConfig::baselineAts();
        base.driver.policy = k;
        SystemConfig fb = SystemConfig::fbarreCfg(2);
        fb.driver.policy = k;
        configs.push_back({"base-" + tag, base});
        configs.push_back({"fbarre-" + tag, fb});
    };
    add(MappingPolicyKind::round_robin, "rr");
    add(MappingPolicyKind::chunking, "chunk");
    add(MappingPolicyKind::coda, "coda");

    const auto &apps = standardSuite();
    auto print = [apps](const ResultStore &store) {
        store.printPairTable(
            "Fig 26: Barre Chord speedup under other mappings",
            {"app", "round-robin", "chunking", "CODA"},
            {"rr", "chunk", "coda"}, apps);
        std::printf("\npaper: 1.25x round-robin, 1.48x chunking, 1.62x "
                    "CODA.\n");
    };
    return {"fig26_mappings", {{configs, soloSpecs(apps), scale}}, print};
}

} // namespace barre::bench
