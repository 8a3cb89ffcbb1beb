// Figure emitter and paper-comparison table tests.

#include <sstream>

#include <gtest/gtest.h>

#include "common/error.h"
#include "report/figure.h"

namespace xysig::report {
namespace {

TEST(Figure, PrintsCsvBlocksPerSeries) {
    Figure fig("fig8", "NDF vs deviation", "dev%", "NDF");
    fig.add_series({"golden", {0.0, 10.0}, {0.0, 0.1}});
    fig.add_series({"noisy", {0.0, 10.0}, {0.002, 0.11}});
    std::ostringstream os;
    fig.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("[fig8]"), std::string::npos);
    EXPECT_NE(out.find("series: golden"), std::string::npos);
    EXPECT_NE(out.find("series: noisy"), std::string::npos);
    EXPECT_NE(out.find("dev%,NDF:golden"), std::string::npos);
    EXPECT_NE(out.find("10,0.1"), std::string::npos);
}

TEST(Figure, AsciiPlotListsGlyphLegend) {
    Figure fig("fig1", "Lissajous", "x", "y");
    fig.add_series({"golden", {0.0, 0.5, 1.0}, {0.0, 1.0, 0.0}});
    std::ostringstream os;
    fig.print(os);
    EXPECT_NE(os.str().find("glyph '1' = golden"), std::string::npos);
}

TEST(Figure, RejectsMalformedSeries) {
    Figure fig("x", "t", "a", "b");
    EXPECT_THROW(fig.add_series({"bad", {0.0, 1.0}, {0.0}}), ContractError);
    EXPECT_THROW(fig.add_series({"empty", {}, {}}), ContractError);
}

TEST(PaperComparison, PrintsAlignedAnchors) {
    PaperComparison cmp("Fig. 7");
    cmp.add("NDF(+10% f0)", "0.1021", 0.095, "calibrated setup");
    cmp.add("zones", "16", "16", "");
    std::ostringstream os;
    cmp.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("paper vs measured"), std::string::npos);
    EXPECT_NE(out.find("0.1021"), std::string::npos);
    EXPECT_NE(out.find("0.095"), std::string::npos);
    EXPECT_NE(out.find("quantity"), std::string::npos);
}

} // namespace
} // namespace xysig::report
