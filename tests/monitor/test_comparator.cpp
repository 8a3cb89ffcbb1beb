// Transistor-level cross-validation: the Fig. 2 comparator netlist solved
// by the SPICE engine must agree with the closed-form boundary everywhere
// except in a thin band around the control curve.

#include "monitor/comparator_netlist.h"

#include <cmath>

#include <gtest/gtest.h>

#include "monitor/table1.h"
#include "spice/dc.h"

namespace xysig::monitor {
namespace {

TEST(Comparator, BuildsAndSolves) {
    ComparatorCircuit ckt = build_comparator(table1_config(3));
    EXPECT_NO_THROW((void)comparator_differential(ckt, 0.2, 0.2));
}

TEST(Comparator, DecisionMatchesClosedFormAwayFromBoundary) {
    for (int row : {1, 3, 6}) {
        const MonitorConfig cfg = table1_config(row);
        const MosCurrentBoundary closed_form(cfg);
        ComparatorCircuit ckt = build_comparator(cfg);

        int checked = 0;
        for (double x = 0.1; x <= 0.91; x += 0.2) {
            for (double y = 0.1; y <= 0.91; y += 0.2) {
                // Skip points close to the control curve, where finite gain
                // (and in silicon, offset) decides: compare only clear-cut
                // points, |dI| above 2% of the full-scale difference.
                const double di = closed_form.current_difference(x, y);
                const double scale =
                    std::abs(closed_form.current_difference(1.0, 0.0)) +
                    std::abs(closed_form.current_difference(0.0, 1.0));
                if (std::abs(di) < 0.02 * scale)
                    continue;
                ++checked;
                const bool expected = di > 0.0; // I_left > I_right
                EXPECT_EQ(comparator_decision(ckt, x, y), expected)
                    << "row " << row << " at (" << x << "," << y << ")";
            }
        }
        EXPECT_GE(checked, 10) << "row " << row;
    }
}

TEST(Comparator, DifferentialFlipsSignAcrossCurve6) {
    ComparatorCircuit ckt = build_comparator(table1_config(6));
    const double above = comparator_differential(ckt, 0.3, 0.6);
    const double below = comparator_differential(ckt, 0.6, 0.3);
    EXPECT_GT(above, 0.0);  // left current dominates -> out2 high
    EXPECT_LT(below, 0.0);
    // Symmetric configuration: symmetric swings.
    EXPECT_NEAR(above, -below, 0.05 * std::abs(above));
}

TEST(Comparator, GainGrowsWithOverdrive) {
    ComparatorCircuit ckt = build_comparator(table1_config(6));
    const double small = std::abs(comparator_differential(ckt, 0.45, 0.55));
    const double large = std::abs(comparator_differential(ckt, 0.2, 0.8));
    EXPECT_GT(large, small);
}

void expect_outputs_inside_supply(ComparatorCircuit& ckt, double x, double y) {
    (void)comparator_differential(ckt, x, y);
    const auto op = spice::dc_operating_point(ckt.netlist);
    const double v1 = op.voltage(ckt.out_left);
    const double v2 = op.voltage(ckt.out_right);
    EXPECT_GE(v1, -1e-6);
    EXPECT_LE(v1, kComparatorVdd + 1e-6);
    EXPECT_GE(v2, -1e-6);
    EXPECT_LE(v2, kComparatorVdd + 1e-6);
}

TEST(Comparator, OutputsStayInsideSupply) {
    ComparatorCircuit ckt = build_comparator(table1_config(3));
    for (double x : {0.1, 0.5, 0.9})
        for (double y : {0.1, 0.5, 0.9})
            expect_outputs_inside_supply(ckt, x, y);
}

} // namespace
} // namespace xysig::monitor
