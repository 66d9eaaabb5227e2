/**
 * @file
 * Tests for the CSV metrics exporter.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "harness/csv.hh"

using namespace barre;

TEST(Csv, HeaderAndRowHaveSameArity)
{
    RunMetrics m;
    std::string header = csvHeader();
    std::string row = csvRow(m);
    auto commas = [](const std::string &s) {
        return std::count(s.begin(), s.end(), ',');
    };
    EXPECT_EQ(commas(header), commas(row));
}

TEST(Csv, ValuesLandInTheRightColumns)
{
    RunMetrics m;
    m.config = "F-Barre";
    m.app = "atax";
    m.runtime = 12345;
    m.ats_packets = 77;
    std::string row = csvRow(m);
    EXPECT_EQ(row.rfind("F-Barre,atax,12345,", 0), 0u);
    EXPECT_NE(row.find(",77,"), std::string::npos);
}

TEST(Csv, EveryFieldLandsInItsPinnedColumn)
{
    // A distinct value in every field, including the ones the sweep
    // CSV leaves out; the expected strings were recorded from the
    // hand-written column lists, so a swapped or dropped column fails.
    RunMetrics m;
    m.config = "cfg";
    m.app = "app";
    m.runtime = 1;
    m.accesses = 2;
    m.instructions = 3.5;
    m.sim_events = 901;
    m.l1_tlb_hits = 902;
    m.l2_tlb_hits = 4;
    m.l2_tlb_misses = 5;
    m.l2_mpki = 6.25;
    m.mshr_retries = 7;
    m.ats_packets = 8;
    m.walks = 9;
    m.iommu_coalesced = 10;
    m.iommu_tlb_hits = 11;
    m.avg_ats_time = 12.125;
    m.avg_pw_queue_depth = 903.5;
    m.local_calc_hits = 13;
    m.remote_probes = 14;
    m.remote_hits = 15;
    m.fbarre_fallbacks = 16;
    m.lcf_positives = 904;
    m.lcf_true_positives = 905;
    m.filter_updates = 17;
    m.local_data = 18;
    m.remote_data = 19;
    m.noc_bytes = 20;
    m.pcie_up_bytes = 21;
    m.pcie_down_bytes = 22;
    m.gmmu_local_walks = 23;
    m.gmmu_remote_walks = 24;
    m.gmmu_coalesced = 25;
    m.coalesced_pages = 26;
    m.mapped_pages = 27;
    m.migrations = 28;

    EXPECT_EQ(csvHeader(),
              "config,app,runtime,accesses,instructions,l2_tlb_hits,"
              "l2_tlb_misses,l2_mpki,mshr_retries,ats_packets,walks,"
              "iommu_coalesced,iommu_tlb_hits,avg_ats_time,"
              "local_calc_hits,remote_probes,remote_hits,"
              "fbarre_fallbacks,filter_updates,local_data,remote_data,"
              "noc_bytes,pcie_up_bytes,pcie_down_bytes,gmmu_local_walks,"
              "gmmu_remote_walks,gmmu_coalesced,coalesced_pages,"
              "mapped_pages,migrations");
    EXPECT_EQ(csvRow(m), "cfg,app,1,2,3.5,4,5,6.25,7,8,9,10,11,12.125,13,"
                         "14,15,16,17,18,19,20,21,22,23,24,25,26,27,28");
}

TEST(Csv, WriteCsvEmitsHeaderPlusRows)
{
    std::ostringstream os;
    RunMetrics a, b;
    // Move-assign: GCC 12's -O3 -Wrestrict misfires on assigning a
    // literal to a default-constructed std::string member here.
    a.app = std::string("x");
    b.app = std::string("y");
    writeCsv(os, {a, b});
    std::string text = os.str();
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
    EXPECT_EQ(text.rfind("config,app,", 0), 0u);
}

TEST(Csv, QuoteLeavesPlainFieldsAlone)
{
    EXPECT_EQ(csvQuote("fbarre"), "fbarre");
    EXPECT_EQ(csvQuote("atax+gups"), "atax+gups");
    EXPECT_EQ(csvQuote(""), "");
}

TEST(Csv, QuoteEscapesCommasQuotesAndNewlines)
{
    EXPECT_EQ(csvQuote("a,b"), "\"a,b\"");
    EXPECT_EQ(csvQuote("say \"hi\""), "\"say \"\"hi\"\"\"");
    EXPECT_EQ(csvQuote("two\nlines"), "\"two\nlines\"");
}

TEST(Csv, SplitCsvRecordUndoesQuoting)
{
    auto fields = splitCsvRecord("\"a,b\",plain,\"q\"\"q\",7");
    ASSERT_EQ(fields.size(), 4u);
    EXPECT_EQ(fields[0], "a,b");
    EXPECT_EQ(fields[1], "plain");
    EXPECT_EQ(fields[2], "q\"q");
    EXPECT_EQ(fields[3], "7");
}

TEST(Csv, SplitCsvRecordHandlesEmptyFields)
{
    auto fields = splitCsvRecord("a,,c,");
    ASSERT_EQ(fields.size(), 4u);
    EXPECT_EQ(fields[1], "");
    EXPECT_EQ(fields[3], "");
}

TEST(Csv, SplitCsvRecordRejectsMalformedInput)
{
    EXPECT_THROW(splitCsvRecord("\"unterminated"), std::runtime_error);
    EXPECT_THROW(splitCsvRecord("\"x\"y,z"), std::runtime_error);
    EXPECT_THROW(splitCsvRecord("a\"b,c"), std::runtime_error);
}

TEST(Csv, RowWithCommaInLabelKeepsColumnsAligned)
{
    // Regression: unquoted emission shifted every downstream column.
    RunMetrics m;
    m.config = "a+b,chunked";
    m.app = "atax";
    m.runtime = 99;
    std::string row = csvRow(m);
    EXPECT_EQ(row.rfind("\"a+b,chunked\",atax,99,", 0), 0u);

    auto header = splitCsvRecord(csvHeader());
    auto fields = splitCsvRecord(row);
    ASSERT_EQ(fields.size(), header.size());
    EXPECT_EQ(fields[0], "a+b,chunked");
    EXPECT_EQ(fields[1], "atax");
    EXPECT_EQ(fields[2], "99");
}
