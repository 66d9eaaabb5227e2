#include "harness/csv.hh"

#include <ostream>
#include <sstream>
#include <type_traits>
#include <variant>

#include "sim/logging.hh"

namespace barre
{

namespace
{

/** One sweep column: its header name and the RunMetrics field it prints. */
struct Column
{
    const char *name;
    std::variant<std::string RunMetrics::*, std::uint64_t RunMetrics::*,
                 double RunMetrics::*>
        field;
};

/** The sweep CSV schema in column order: csvHeader and csvRow read it. */
const Column kColumns[] = {
    {"config", &RunMetrics::config},
    {"app", &RunMetrics::app},
    {"runtime", &RunMetrics::runtime},
    {"accesses", &RunMetrics::accesses},
    {"instructions", &RunMetrics::instructions},
    {"l2_tlb_hits", &RunMetrics::l2_tlb_hits},
    {"l2_tlb_misses", &RunMetrics::l2_tlb_misses},
    {"l2_mpki", &RunMetrics::l2_mpki},
    {"mshr_retries", &RunMetrics::mshr_retries},
    {"ats_packets", &RunMetrics::ats_packets},
    {"walks", &RunMetrics::walks},
    {"iommu_coalesced", &RunMetrics::iommu_coalesced},
    {"iommu_tlb_hits", &RunMetrics::iommu_tlb_hits},
    {"avg_ats_time", &RunMetrics::avg_ats_time},
    {"local_calc_hits", &RunMetrics::local_calc_hits},
    {"remote_probes", &RunMetrics::remote_probes},
    {"remote_hits", &RunMetrics::remote_hits},
    {"fbarre_fallbacks", &RunMetrics::fbarre_fallbacks},
    {"filter_updates", &RunMetrics::filter_updates},
    {"local_data", &RunMetrics::local_data},
    {"remote_data", &RunMetrics::remote_data},
    {"noc_bytes", &RunMetrics::noc_bytes},
    {"pcie_up_bytes", &RunMetrics::pcie_up_bytes},
    {"pcie_down_bytes", &RunMetrics::pcie_down_bytes},
    {"gmmu_local_walks", &RunMetrics::gmmu_local_walks},
    {"gmmu_remote_walks", &RunMetrics::gmmu_remote_walks},
    {"gmmu_coalesced", &RunMetrics::gmmu_coalesced},
    {"coalesced_pages", &RunMetrics::coalesced_pages},
    {"mapped_pages", &RunMetrics::mapped_pages},
    {"migrations", &RunMetrics::migrations},
};

} // namespace

std::string
csvHeader()
{
    std::string out;
    for (const Column &c : kColumns) {
        if (!out.empty())
            out += ',';
        out += c.name;
    }
    return out;
}

std::string
tenantCsvHeader()
{
    return "app,pid,arrival,finish,retired,runtime,accesses,"
           "lat_p50,lat_p95,lat_p99,peak_l2_tlb";
}

std::string
tenantCsvRow(const TenantMetrics &t)
{
    std::ostringstream os;
    os << csvQuote(t.app) << ',' << t.pid << ',' << t.arrival << ','
       << t.finish << ',' << t.retired << ',' << t.runtime() << ','
       << t.accesses << ',' << t.lat_p50 << ',' << t.lat_p95 << ','
       << t.lat_p99 << ',' << t.peak_l2_tlb;
    return os.str();
}

std::string
csvQuote(const std::string &field)
{
    if (field.find_first_of(",\"\n\r") == std::string::npos)
        return field;
    std::string out;
    out.reserve(field.size() + 2);
    out.push_back('"');
    for (char c : field) {
        if (c == '"')
            out.push_back('"');
        out.push_back(c);
    }
    out.push_back('"');
    return out;
}

std::vector<std::string>
splitCsvRecord(const std::string &line)
{
    std::vector<std::string> fields;
    std::string cur;
    std::size_t i = 0;
    const std::size_t n = line.size();
    for (;;) {
        cur.clear();
        if (i < n && line[i] == '"') {
            ++i; // quoted field
            for (;;) {
                if (i >= n)
                    barre_fatal("unterminated quote in CSV record "
                                "'%s'",
                                line.c_str());
                if (line[i] == '"') {
                    if (i + 1 < n && line[i + 1] == '"') {
                        cur.push_back('"');
                        i += 2;
                        continue;
                    }
                    ++i; // closing quote
                    break;
                }
                cur.push_back(line[i++]);
            }
            if (i < n && line[i] != ',')
                barre_fatal("garbage after closing quote in CSV "
                            "record '%s'",
                            line.c_str());
        } else {
            while (i < n && line[i] != ',') {
                if (line[i] == '"')
                    barre_fatal("stray quote in unquoted CSV field "
                                "in record '%s'",
                                line.c_str());
                cur.push_back(line[i++]);
            }
        }
        fields.push_back(cur);
        if (i >= n)
            break;
        ++i; // consume the comma
    }
    return fields;
}

std::string
csvRow(const RunMetrics &m)
{
    std::ostringstream os;
    const char *sep = "";
    for (const Column &c : kColumns) {
        os << sep;
        sep = ",";
        std::visit(
            [&](auto field) {
                if constexpr (std::is_same_v<decltype(field),
                                             std::string RunMetrics::*>)
                    os << csvQuote(m.*field);
                else
                    os << m.*field;
            },
            c.field);
    }
    return os.str();
}

void
writeCsv(std::ostream &os, const std::vector<RunMetrics> &rows)
{
    os << csvHeader() << '\n';
    for (const auto &m : rows)
        os << csvRow(m) << '\n';
}

} // namespace barre
