// Tests of the current-comparison monitor model: Table I curve shapes
// (paper Fig. 4), orientation, and Monte-Carlo perturbation.

#include "monitor/mos_boundary.h"

#include <cmath>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "monitor/table1.h"
#include "support/pin.h"

namespace xysig::monitor {
namespace {

TEST(Table1, BankFingerprintIsPinned) {
    // Every Table I row takes its device template and drain bias from the
    // MosParams and MonitorConfig defaults. The bank's fingerprint spells
    // each parameter out as an exact hexfloat, so it is the same on every
    // platform, and a moved default changes it.
    const std::string fp = build_table1_bank().fingerprint();
    EXPECT_EQ(fp.size(), 2331u);
    EXPECT_EQ(fnv1a64(fp), 0x770f0a426566c580ULL);
}

TEST(Table1, LinearApproximationBankFingerprintIsPinned) {
    // The six lines are least-squares fits to traced Table I curves, so
    // this pins the trace window and the fit bit for bit.
    const std::string fp = build_linear_approximation_bank().fingerprint();
    EXPECT_EQ(fp.size(), 324u);
    EXPECT_EQ(fnv1a64(fp), 0xd567ce38e2075048ULL);
}

TEST(MosCurrentBoundary, OriginSideIsZeroForAllTable1Curves) {
    for (int row = 1; row <= 6; ++row) {
        const MosCurrentBoundary b(table1_config(row));
        EXPECT_FALSE(b.side(0.01, 0.0)) << "curve " << row;
    }
}

TEST(MosCurrentBoundary, FarCornerIsOneForAllTable1Curves) {
    // (1, 1) drives the axis-connected devices hard; every Table I curve has
    // the top-right corner on the "1" side (see Fig. 6: code 111111).
    for (int row = 1; row <= 6; ++row) {
        const MosCurrentBoundary b(table1_config(row));
        EXPECT_TRUE(b.side(1.0, 1.0)) << "curve " << row;
    }
}

TEST(MosCurrentBoundary, Curve6IsTheDiagonal) {
    const MosCurrentBoundary b(table1_config(6));
    EXPECT_TRUE(b.side(0.3, 0.5));  // above y = x
    EXPECT_FALSE(b.side(0.5, 0.3)); // below
    // On-diagonal points are on the curve: |h| tiny relative to off-diagonal.
    const double on = std::abs(b.h(0.4, 0.4));
    const double off = std::abs(b.h(0.4, 0.6));
    EXPECT_LT(on, 1e-6 * off);
}

TEST(MosCurrentBoundary, Curve1IsPositiveSlopeSegment) {
    // Fig. 4: curve 1 sits near y ~ 0.6 at x = 0 and rises slowly.
    const MosCurrentBoundary b(table1_config(1));
    const auto pts = trace_boundary(b, 0.0, 1.0, 21);
    ASSERT_GE(pts.size(), 15u);
    EXPECT_NEAR(pts.front().y, 0.6, 0.05);
    // Monotone non-decreasing in x.
    for (std::size_t i = 1; i < pts.size(); ++i)
        EXPECT_GE(pts[i].y, pts[i - 1].y - 1e-9);
    EXPECT_GT(pts.back().y, pts.front().y + 0.05);
}

TEST(MosCurrentBoundary, Curves3to5AreNegativeSlopeArcsOrderedByBias) {
    // Fig. 4: DC levels 0.3 / 0.55 / 0.75 give arcs at increasing distance
    // from the origin (curves 4, 3, 5 respectively).
    auto y_at_zero = [](int row) {
        const MosCurrentBoundary b(table1_config(row));
        const auto pts = trace_boundary(b, 0.0, 0.02, 2);
        EXPECT_FALSE(pts.empty()) << "curve " << row;
        return pts.empty() ? -1.0 : pts.front().y;
    };
    const double y4 = y_at_zero(4);
    const double y3 = y_at_zero(3);
    const double y5 = y_at_zero(5);
    EXPECT_LT(y4, y3);
    EXPECT_LT(y3, y5);

    // Negative slope: y(x) decreases along curve 3.
    const MosCurrentBoundary b3(table1_config(3));
    const auto pts = trace_boundary(b3, 0.3, 0.6, 7);
    ASSERT_GE(pts.size(), 5u);
    for (std::size_t i = 1; i < pts.size(); ++i)
        EXPECT_LE(pts[i].y, pts[i - 1].y + 1e-9);
}

TEST(MosCurrentBoundary, SymmetricCurvesMirrorAcrossDiagonal) {
    // Curves 3-5 add X and Y symmetrically: h(x, y) == h(y, x).
    for (int row : {3, 4, 5}) {
        const MosCurrentBoundary b(table1_config(row));
        for (double x : {0.1, 0.35, 0.6})
            for (double y : {0.2, 0.5, 0.9})
                EXPECT_NEAR(b.h(x, y), b.h(y, x), 1e-18) << "curve " << row;
    }
}

TEST(MosCurrentBoundary, WidthRatioControlsCurvePosition) {
    // Doubling M4's width (DC leg at 0.6 V) pushes curve 1 upward: more
    // right-side current must be matched by a larger Y.
    MonitorConfig cfg = table1_config(1);
    const MosCurrentBoundary base(cfg);
    cfg.legs[3].width *= 2.0;
    const MosCurrentBoundary wider(cfg);
    const auto p_base = trace_boundary(base, 0.5, 0.52, 2);
    const auto p_wide = trace_boundary(wider, 0.5, 0.52, 2);
    ASSERT_FALSE(p_base.empty());
    ASSERT_FALSE(p_wide.empty());
    EXPECT_GT(p_wide.front().y, p_base.front().y + 0.02);
}

TEST(MosCurrentBoundary, CurrentDifferenceIsLeftMinusRight) {
    const MonitorConfig cfg = table1_config(6);
    const MosCurrentBoundary b(cfg);
    // At (0, 0.5): left legs (Y=0.5, dc 0) conduct more than right (X=0, 0).
    EXPECT_GT(b.current_difference(0.0, 0.5), 0.0);
    EXPECT_LT(b.current_difference(0.5, 0.0), 0.0);
}

TEST(PerturbMonitor, DeterministicPerSeed) {
    const MonitorConfig cfg = table1_config(3);
    Rng a(42), b(42);
    const MonitorConfig pa = perturb_monitor(cfg, a);
    const MonitorConfig pb = perturb_monitor(cfg, b);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_DOUBLE_EQ(pa.legs[i].vt0_delta, pb.legs[i].vt0_delta);
        EXPECT_DOUBLE_EQ(pa.legs[i].kp_scale, pb.legs[i].kp_scale);
    }
}

TEST(PerturbMonitor, DrawIsPinned) {
    // One draw from a fixed seed, bit for bit: the global process shift,
    // each leg's Pelgrom mismatch and the offset current, in draw order.
    Rng rng(2027);
    const MonitorConfig p = perturb_monitor(table1_config(3), rng);
    const std::uint64_t vt0_delta[4] = {0xbf924f7b7df90d98ULL, 0xbf883869917ebefdULL,
                                        0xbf905049b2016ae2ULL, 0xbf8831152070f8a2ULL};
    const std::uint64_t kp_scale[4] = {0x3ff03f796b984d77ULL, 0x3ff00f628edcd648ULL,
                                       0x3fefee7710a6d605ULL, 0x3ff04cf274489d48ULL};
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(bits_of(p.legs[i].vt0_delta), vt0_delta[i]) << "leg " << i;
        EXPECT_EQ(bits_of(p.legs[i].kp_scale), kp_scale[i]) << "leg " << i;
    }
    EXPECT_EQ(bits_of(p.offset_current), 0x3e3443b8af9209c4ULL);
}

TEST(PerturbMonitor, ShiftsAreMismatchSized) {
    const MonitorConfig cfg = table1_config(3);
    Rng rng(7);
    double max_vt = 0.0;
    for (int i = 0; i < 100; ++i) {
        const MonitorConfig p = perturb_monitor(cfg, rng);
        for (const auto& leg : p.legs)
            max_vt = std::max(max_vt, std::abs(leg.vt0_delta));
    }
    EXPECT_GT(max_vt, 0.005); // variation actually applied
    EXPECT_LT(max_vt, 0.15);  // but physically plausible
}

TEST(MosCurrentBoundary, OffsetCurrentDistortsSubthresholdRegion) {
    // The paper attributes the measured distortion of curve 6 at small input
    // voltages to subthreshold operation: a fixed comparator offset current
    // displaces the boundary strongly where the input currents are nA-scale
    // and negligibly where they are strong-inversion uA-scale.
    MonitorConfig cfg = table1_config(6);
    cfg.offset_current = 2e-9;
    const MosCurrentBoundary nominal(table1_config(6));
    const MosCurrentBoundary offset(cfg);
    auto y_at = [](const MosCurrentBoundary& b, double x) {
        const auto pts = trace_boundary(b, x, x + 1e-6, 2);
        return pts.empty() ? -1.0 : pts.front().y;
    };
    const double shift_low = std::abs(y_at(offset, 0.05) - y_at(nominal, 0.05));
    const double shift_high = std::abs(y_at(offset, 0.6) - y_at(nominal, 0.6));
    EXPECT_GT(shift_low, 5.0 * std::max(shift_high, 1e-6));
    EXPECT_LT(shift_high, 2e-3); // invisible in strong inversion
}

TEST(PerturbMonitor, SamplesOffsetCurrent) {
    const MonitorConfig cfg = table1_config(6);
    Rng rng(11);
    const MonitorConfig p = perturb_monitor(cfg, rng);
    EXPECT_NE(p.offset_current, 0.0);
    EXPECT_LT(std::abs(p.offset_current), 20e-9);
}

TEST(PerturbMonitor, MovesTheBoundary) {
    const MonitorConfig cfg = table1_config(3);
    Rng rng(3);
    const MonitorConfig p = perturb_monitor(cfg, rng);
    const MosCurrentBoundary nominal(cfg);
    const MosCurrentBoundary perturbed(p);
    const auto b0 = trace_boundary(nominal, 0.2, 0.22, 2);
    const auto b1 = trace_boundary(perturbed, 0.2, 0.22, 2);
    ASSERT_FALSE(b0.empty());
    ASSERT_FALSE(b1.empty());
    EXPECT_GT(std::abs(b0.front().y - b1.front().y), 1e-5);
}

} // namespace
} // namespace xysig::monitor
