/**
 * @file
 * Fig 5: distribution of the VPN gap between consecutive translation
 * requests arriving at the IOMMU, private vs (hypothetical) shared L2
 * TLBs.
 *
 * Paper shape: private L2 TLBs produce many more large, irregular gaps
 * (scattered spikes), defeating stride prefetchers.
 *
 * Cells need a per-run IOMMU probe (setVpnProbe), so this bench builds
 * its Systems directly and fans the cells out with parallelFor() — each
 * cell samples into its own histogram slot, keeping the results
 * deterministic and independent of the worker count.
 */

#include <array>
#include <cstdio>
#include <vector>

#include "bench/common.hh"
#include "harness/pool.hh"
#include "harness/system.hh"

namespace barre::bench
{

namespace
{

struct GapHist
{
    // Buckets: |gap| of 1, 2-7, 8-63, 64-511, 512+.
    std::array<std::uint64_t, 5> bins{};
    Vpn last = invalid_vpn;

    void
    sample(Vpn vpn)
    {
        if (last != invalid_vpn) {
            std::uint64_t gap = vpn > last ? vpn - last : last - vpn;
            std::size_t b = gap <= 1 ? 0
                            : gap < 8 ? 1
                            : gap < 64 ? 2
                            : gap < 512 ? 3
                                        : 4;
            ++bins[b];
        }
        last = vpn;
    }
};

GapHist
runWithHist(SystemConfig cfg, const AppParams &app, double scale)
{
    cfg.workload_scale *= scale;
    GapHist hist;
    System sys(std::move(cfg));
    sys.iommu().setVpnProbe([&](Vpn v) { hist.sample(v); });
    sys.loadScenario(ScenarioSpec::solo(app.name));
    sys.run();
    return hist;
}

} // namespace

Figure
fig05VpnGap(double scale)
{
    auto print = [scale](const ResultStore &) {
        std::vector<AppParams> apps{appByName("cov"), appByName("atax"),
                                    appByName("matr"), appByName("spmv")};

        // Cell layout: app-major, [private, shared] per app.
        std::vector<std::array<GapHist, 2>> hists(apps.size());
        parallelFor(0, apps.size() * 2, [&](std::size_t i) {
            const std::size_t a = i / 2;
            if (i % 2 == 0) {
                hists[a][0] = runWithHist(SystemConfig::baselineAts(),
                                          apps[a], scale);
            } else {
                SystemConfig cfg = SystemConfig::baselineAts();
                cfg.shared_l2_tlb = true;
                hists[a][1] = runWithHist(cfg, apps[a], scale);
            }
        });

        TextTable table({"app", "tlb", "gap=1", "2-7", "8-63", "64-511",
                         "512+"});
        for (std::size_t a = 0; a < apps.size(); ++a) {
            const auto &pair = hists[a];
            const char *labels[2] = {"private", "shared"};
            for (int i = 0; i < 2; ++i) {
                double total = 0;
                for (auto b : pair[i].bins)
                    total += static_cast<double>(b);
                std::vector<std::string> row{apps[a].name, labels[i]};
                for (auto b : pair[i].bins)
                    row.push_back(fmt(total ? 100.0 * b / total : 0, 1) +
                                  "%");
                table.addRow(std::move(row));
            }
        }
        table.print("Fig 5: VPN gap distribution at the IOMMU");
        std::printf("\npaper: private TLBs shift mass to large irregular "
                    "gaps; shared smooths the stream.\n");
    };
    return {"fig05_vpn_gap", {}, print};
}

} // namespace barre::bench
