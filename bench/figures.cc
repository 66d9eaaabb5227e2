/**
 * @file
 * figures - regenerate the paper's figures and tables.
 *
 *   figures                       # all of them, in name order
 *   figures tab1_mpki fig16_ats   # these, in this order
 *
 * The requested figures' cells run as one de-duplicated batch
 * (runFigures()). $BARRE_SCALE scales every workload; $BARRE_JOBS caps
 * the workers (1 = serial). An unknown name is fatal.
 */

#include <algorithm>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "sim/logging.hh"

using namespace barre;
using namespace barre::bench;

static int
figuresMain(int argc, char **argv)
{
    const double scale = envScale();
    const std::vector<Figure> all{
        ablDemandPaging(scale),         ablMulticast(scale),
        ablWalkModel(scale),            fig01PtwScaling(scale),
        fig02SuperpageMigration(scale), fig04Mshr(scale),
        fig05VpnGap(scale),             fig06SharedL2tlb(scale),
        fig15Overall(scale),            fig16Ats(scale),
        fig17aFilterHits(scale),        fig17bFilterSize(scale),
        fig18Breakdown(scale),          fig19SharingTraffic(scale),
        fig20Chiplets(scale),           fig21Gmmu(scale),
        fig22Migration(scale),          fig23PtwSweep(scale),
        fig24PageSize(scale),           fig25VsSuperpage(scale),
        fig26Mappings(scale),           fig27aMultiapp(scale),
        fig27bIommuTlb(scale),          sec7kOverhead(scale),
        tab1Mpki(scale),                tab2Params(scale),
    };

    std::vector<Figure> picked;
    for (int i = 1; i < argc; ++i) {
        auto it = std::find_if(all.begin(), all.end(),
                               [&](const Figure &f) {
                                   return f.name == argv[i];
                               });
        if (it == all.end()) {
            std::string known;
            for (const Figure &f : all)
                known += " " + f.name;
            barre_fatal("unknown figure '%s'; known:%s", argv[i],
                        known.c_str());
        }
        picked.push_back(*it);
    }
    runFigures(argc > 1 ? picked : all);
    return 0;
}

int
main(int argc, char **argv)
{
    return runMain(figuresMain, argc, argv);
}
