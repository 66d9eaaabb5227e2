/**
 * @file
 * Fig 6: oracle package-shared L2 TLB (4x entries/bandwidth, no added
 * latency) vs private per-chiplet L2 TLBs.
 *
 * Paper shape: only ~6% average speedup, under half the apps improve -
 * advanced page mapping already removed most sharable translations, so
 * TLB sharing alone cannot be the answer.
 */

#include "bench/common.hh"

namespace barre::bench
{

Figure
fig06SharedL2tlb(double scale)
{
    SystemConfig priv = SystemConfig::baselineAts();
    SystemConfig shared = priv;
    shared.shared_l2_tlb = true;

    std::vector<NamedConfig> configs{{"private", priv},
                                     {"shared-oracle", shared}};
    const auto specs = soloSpecs(standardSuite());
    auto print = [specs](const ResultStore &store) {
        store.printSpeedupTable("Fig 6: oracle shared L2 TLB", "private",
                                {"shared-oracle"}, specs);
        std::printf("\npaper: ~1.06x average; fewer than half the apps "
                    "improve.\n");
    };
    return {"fig06_shared_l2tlb", {{configs, specs, scale}}, print};
}

} // namespace barre::bench
