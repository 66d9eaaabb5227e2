/**
 * @file
 * Table II: the simulation parameters. This bench verifies and prints
 * the default configuration so the reproduction's parameters are
 * auditable against the paper's table.
 */

#include "bench/common.hh"
#include "sim/logging.hh"

namespace barre::bench
{

namespace
{

/** Panics (exit code) if a default drifted from the paper's table. */
void
assertDefaultsMatchTableII(const SystemConfig &cfg)
{
    barre_assert(cfg.chiplets == 4, "chiplets");
    barre_assert(cfg.cus_per_chiplet == 64, "4 SAs x 16 CUs");
    barre_assert(cfg.chiplet.l2_tlb.entries == 512, "L2 TLB");
    barre_assert(cfg.chiplet.l2_tlb.ways == 16, "L2 TLB ways");
    barre_assert(cfg.chiplet.l2_tlb.lookup_latency == 10, "L2 lat");
    barre_assert(cfg.chiplet.l1_tlb.entries == 64, "L1 TLB");
    barre_assert(cfg.iommu.ptws == 16, "PTWs");
    barre_assert(cfg.iommu.walk_latency == 500, "walk latency");
    barre_assert(cfg.iommu.pw_queue_entries == 48, "PW-queue");
    barre_assert(cfg.fbarre.filter.rows == 256, "cuckoo rows");
    barre_assert(cfg.fbarre.filter.ways == 4, "cuckoo ways");
    barre_assert(cfg.fbarre.filter.fingerprint_bits == 9,
                 "fingerprint");
    barre_assert(cfg.driver.merge_limit == 2, "2-merge default");
    barre_assert(cfg.fbarre.pec_buffer_entries == 5, "PEC buffer");
}

} // namespace

Figure
tab2Params(double)
{
    auto print = [](const ResultStore &) {
        SystemConfig cfg = SystemConfig::fbarreCfg(2);
        cfg.normalize();
        assertDefaultsMatchTableII(cfg);
        TextTable t({"parameter", "value", "paper (Table II)"});
        t.addRow({"GPU chiplets", std::to_string(cfg.chiplets), "4"});
        t.addRow({"CUs", std::to_string(cfg.chiplets *
                                        cfg.cus_per_chiplet),
                  "256 total (16/SA x 4 SA x 4)"});
        t.addRow({"L1 TLB", "64-entry fully-assoc, 1cy, per CU", "same"});
        t.addRow({"L2 TLB",
                  "512-entry 16-way, 10cy, 16 MSHRs, chip-shared", "same"});
        t.addRow({"L1 vector cache", "16KB 4-way 16 MSHRs", "same"});
        t.addRow({"L2 cache", "2MB 16-way 64 MSHRs", "same"});
        t.addRow({"DRAM", "1 TB/s, 100ns", "same"});
        t.addRow({"IOMMU", "16 PTWs, 500cy walks, 48 PW-queue", "same"});
        t.addRow({"Inter-chip link", "768 GB/s, 32cy", "same"});
        t.addRow({"CPU-GPU", "PCIe Gen4 x16, 150cy", "same"});
        t.addRow({"Cuckoo filter", "9-bit fp, 4-way, 256 rows", "same"});
        t.addRow({"Merged coalescing group", "2 (default)", "same"});
        t.addRow({"PEC buffer", "5 x 118 bits", "same"});
        t.addRow({"CTA/page scheduling", "LASP", "same"});
        t.print("Table II: simulation parameters");
    };
    return {"tab2_params", {}, print};
}

} // namespace barre::bench
