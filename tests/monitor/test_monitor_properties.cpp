// Property-based tests of the monitor construction across process corners:
// the zone structure the paper relies on must be robust to the device
// template, not an artefact of one calibration point.

#include <memory>

#include <gtest/gtest.h>

#include "monitor/table1.h"
#include "monitor/zone_map.h"

namespace xysig::monitor {
namespace {

struct Corner {
    const char* name;
    double vt0;
    double kp;
    double n_slope;
};

class MonitorCorners : public ::testing::TestWithParam<Corner> {
protected:
    /// Table I row `row` with the corner's device template.
    MonitorConfig config(int row) const {
        MonitorConfig cfg = table1_config(row);
        cfg.device.vt0 = GetParam().vt0;
        cfg.device.kp = GetParam().kp;
        cfg.device.n_slope = GetParam().n_slope;
        return cfg;
    }
    /// The Table I bank at the corner.
    MonitorBank bank() const {
        MonitorBank out;
        for (int row = 1; row <= 6; ++row)
            out.add(std::make_unique<MosCurrentBoundary>(config(row)));
        return out;
    }
};

TEST_P(MonitorCorners, OriginZoneIsAllZeros) {
    EXPECT_EQ(bank().code(0.02, 0.005), 0u);
}

TEST_P(MonitorCorners, GrayPropertyHolds) {
    const MonitorBank bank = this->bank();
    const ZoneMap zm(bank, 128);
    EXPECT_LT(zm.gray_violation_fraction(), 0.03) << GetParam().name;
}

TEST_P(MonitorCorners, ZoneCountStaysNearSixteen) {
    // Corner shifts move the curves but must not collapse the partition.
    const MonitorBank bank = this->bank();
    const ZoneMap zm(bank, 128);
    EXPECT_GE(zm.zone_count(), 12u) << GetParam().name;
    EXPECT_LE(zm.zone_count(), 20u) << GetParam().name;
}

TEST_P(MonitorCorners, DiagonalMonitorStaysDiagonal) {
    // Curve 6 is set by symmetry, not by absolute device parameters.
    const MosCurrentBoundary b(config(6));
    for (double v : {0.2, 0.5, 0.8}) {
        EXPECT_TRUE(b.side(v - 0.05, v + 0.05)) << GetParam().name;
        EXPECT_FALSE(b.side(v + 0.05, v - 0.05)) << GetParam().name;
    }
}

TEST_P(MonitorCorners, BoundariesRespondMonotonicallyAlongY) {
    // For monitors with Y on the left branch, h grows with y at fixed x
    // (more left current): the zone bit can flip at most once along a
    // vertical line — required for the signature's run-length structure.
    for (int row : {1, 3, 4, 5}) {
        const MosCurrentBoundary b(config(row));
        for (double x : {0.1, 0.5, 0.9}) {
            double prev = b.h(x, 0.0);
            for (double y = 0.05; y <= 1.0; y += 0.05) {
                const double cur = b.h(x, y);
                EXPECT_GE(cur, prev - 1e-15)
                    << GetParam().name << " row " << row << " x " << x;
                prev = cur;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    ProcessCorners, MonitorCorners,
    ::testing::Values(Corner{"nominal", 0.30, 250e-6, 1.35},
                      Corner{"slow_high_vt", 0.35, 220e-6, 1.40},
                      Corner{"fast_low_vt", 0.25, 280e-6, 1.30},
                      Corner{"low_gain", 0.30, 150e-6, 1.35},
                      Corner{"steep_subthreshold", 0.30, 250e-6, 1.15}),
    // `param_info`, not `info`: the INSTANTIATE_TEST_SUITE_P expansion already
    // has an `info` parameter in scope, and the hardening lane builds -Wshadow.
    [](const ::testing::TestParamInfo<Corner>& param_info) {
        return std::string(param_info.param.name);
    });

} // namespace
} // namespace xysig::monitor
