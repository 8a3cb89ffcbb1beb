// Unit tests for CSV emission, text tables and the ASCII plotting canvas.

#include <cmath>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/ascii_plot.h"
#include "common/csv.h"
#include "common/error.h"
#include "common/table.h"

namespace xysig {
namespace {

TEST(CsvEscape, QuotesOnlyWhenNeeded) {
    EXPECT_EQ(csv_escape("plain"), "plain");
    EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
    EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
    EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(CsvWriter, HeaderAndNumericRows) {
    std::ostringstream os;
    CsvWriter w(os);
    const std::vector<std::string> hdr = {"x", "y"};
    w.write_header(hdr);
    const std::vector<double> row = {1.0, 2.5};
    w.write_row(row);
    EXPECT_EQ(os.str(), "x,y\n1,2.5\n");
}

TEST(CsvWriter, SeriesHelper) {
    std::ostringstream os;
    const std::vector<double> xs = {0.0, 1.0};
    const std::vector<double> ys = {10.0, 20.0};
    CsvWriter::write_series(os, "t", xs, "v", ys);
    EXPECT_EQ(os.str(), "t,v\n0,10\n1,20\n");
}

TEST(CsvWriter, SeriesLengthMismatchIsContractViolation) {
    std::ostringstream os;
    const std::vector<double> xs = {0.0, 1.0};
    const std::vector<double> ys = {10.0};
    EXPECT_THROW(CsvWriter::write_series(os, "t", xs, "v", ys), ContractError);
}

TEST(TextTable, AlignsColumns) {
    TextTable t({"name", "value"});
    t.add_row({"f0", "10000"});
    t.add_row({"Q", "1"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("f0"), std::string::npos);
    // Header underline present.
    EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(TextTable, RowArityEnforced) {
    TextTable t({"a", "b"});
    EXPECT_THROW(t.add_row({"only-one"}), ContractError);
}

TEST(AsciiCanvas, PointLandsInGrid) {
    AsciiCanvas c(0.0, 1.0, 0.0, 1.0, 10, 5);
    c.point(0.0, 0.0, 'o');
    c.point(1.0, 1.0, 'x');
    std::ostringstream os;
    c.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find('o'), std::string::npos);
    EXPECT_NE(out.find('x'), std::string::npos);
}

TEST(AsciiCanvas, OutOfWindowPointsClipped) {
    AsciiCanvas c(0.0, 1.0, 0.0, 1.0, 10, 5);
    c.point(5.0, 5.0, 'Z');
    std::ostringstream os;
    c.print(os);
    EXPECT_EQ(os.str().find('Z'), std::string::npos);
}

TEST(AsciiCanvas, NonFinitePointsIgnored) {
    AsciiCanvas c(0.0, 1.0, 0.0, 1.0, 10, 5);
    c.point(std::nan(""), 0.5, 'N');
    std::ostringstream os;
    c.print(os);
    EXPECT_EQ(os.str().find('N'), std::string::npos);
}

} // namespace
} // namespace xysig
