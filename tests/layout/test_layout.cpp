// Common-centroid placement and Fig. 3 area model tests.

#include <gtest/gtest.h>

#include "common/error.h"
#include "layout/area.h"
#include "layout/common_centroid.h"
#include "monitor/table1.h"
#include "support/pin.h"

namespace xysig::layout {
namespace {

/// Cells of a placement holding `device` (-1: the dummies).
std::size_t cells_of(const Placement& p, int device) {
    std::size_t n = 0;
    for (std::size_t r = 0; r < p.rows(); ++r)
        for (std::size_t c = 0; c < p.cols(); ++c)
            n += p.device_at(r, c) == device ? 1u : 0u;
    return n;
}

TEST(CommonCentroid, MonitorArrayEightDevicesSplitByFour) {
    // The paper's layout: 8 transistors split into 4 units each (Fig. 3).
    const Placement p = common_centroid_place(8, 4, 4);
    EXPECT_EQ(p.rows(), 4u);
    EXPECT_EQ(p.cols(), 8u);
    for (int d = 0; d < 8; ++d) {
        EXPECT_EQ(cells_of(p, d), 4u) << "device " << d;
        EXPECT_NEAR(p.centroid_error(d), 0.0, 1e-12) << "device " << d;
    }
    EXPECT_TRUE(p.is_common_centroid());
}

TEST(CommonCentroid, TwoDeviceDifferentialPair) {
    const Placement p = common_centroid_place(2, 2, 2);
    EXPECT_TRUE(p.is_common_centroid());
    EXPECT_EQ(cells_of(p, 0), 2u);
    EXPECT_EQ(cells_of(p, 1), 2u);
}

TEST(CommonCentroid, SpareCellsBecomeSymmetricDummies) {
    // 3 devices x 2 units = 6 units on a 4x2 grid: 2 dummies.
    const Placement p = common_centroid_place(3, 2, 4);
    EXPECT_EQ(p.rows() * p.cols() - 6u, cells_of(p, -1));
    EXPECT_TRUE(p.is_common_centroid());
    // Dummies are centrally symmetric too: treat them as a pseudo-device.
    double sum_r = 0.0, sum_c = 0.0;
    std::size_t n = 0;
    for (std::size_t r = 0; r < p.rows(); ++r)
        for (std::size_t c = 0; c < p.cols(); ++c)
            if (p.device_at(r, c) == -1) {
                sum_r += static_cast<double>(r);
                sum_c += static_cast<double>(c);
                ++n;
            }
    ASSERT_GT(n, 0u);
    EXPECT_NEAR(sum_r / static_cast<double>(n),
                (static_cast<double>(p.rows()) - 1.0) / 2.0, 1e-12);
    EXPECT_NEAR(sum_c / static_cast<double>(n),
                (static_cast<double>(p.cols()) - 1.0) / 2.0, 1e-12);
}

TEST(CommonCentroid, OddUnitCountRejected) {
    EXPECT_THROW((void)common_centroid_place(4, 3, 2), ContractError);
}

TEST(CommonCentroid, DispersionBeatsClumpedPlacement) {
    // The generator interleaves devices; a clumped layout (all of device 0
    // in the top-left corner) has both a centroid error and worse
    // gradient-averaging. Compare dispersion against such a layout.
    const Placement good = common_centroid_place(2, 4, 2);
    Placement clumped(2, 4);
    clumped.set_device(0, 0, 0);
    clumped.set_device(0, 1, 0);
    clumped.set_device(0, 2, 0);
    clumped.set_device(0, 3, 0);
    clumped.set_device(1, 0, 1);
    clumped.set_device(1, 1, 1);
    clumped.set_device(1, 2, 1);
    clumped.set_device(1, 3, 1);
    EXPECT_TRUE(good.is_common_centroid());
    EXPECT_FALSE(clumped.is_common_centroid());
}

TEST(AreaModel, CoreMatchesPaperDimensions) {
    // Paper Fig. 3: 53.54 um^2 core, 11.64 um x 4.6 um.
    const auto cfg = monitor::table1_config(1); // the wide-device config
    const AreaReport core = monitor_core_area(cfg);
    EXPECT_NEAR(core.area_um2(), 53.54, 0.15 * 53.54);
    EXPECT_NEAR(core.width_um(), 11.64, 0.15 * 11.64);
    EXPECT_NEAR(core.height_um(), 4.6, 0.15 * 4.6);
}

TEST(AreaModel, TotalMatchesPaperWithOutputStage) {
    const auto cfg = monitor::table1_config(1);
    const AreaReport total = monitor_total_area(cfg);
    EXPECT_NEAR(total.area * 1e12, 116.1, 0.15 * 116.1);
}

TEST(AreaModel, Fig3MonitorAreasArePinned) {
    // The calibrated model's output for Fig. 3's monitor (Table I row 1),
    // bit for bit.
    const auto cfg = monitor::table1_config(1);
    const AreaReport core = monitor_core_area(cfg);
    const AreaReport total = monitor_total_area(cfg);
    EXPECT_EQ(bits_of(core.width), 0x3ee8692d6b1d2f66ULL);  // 11.64 um
    EXPECT_EQ(bits_of(core.height), 0x3ed34b365f379dfcULL); // 4.6 um
    EXPECT_EQ(bits_of(core.area), 0x3dcd6fa5e85762daULL);   // 53.544 um^2
    EXPECT_EQ(bits_of(total.width), 0x3efa774f97c2d4d2ULL); // 25.24 um
    EXPECT_EQ(bits_of(total.height), 0x3ed34b365f379dfcULL);
    EXPECT_EQ(bits_of(total.area), 0x3ddfea17b97bc63aULL);  // 116.104 um^2
}

TEST(AreaModel, AreaGrowsWithDeviceWidth) {
    auto cfg = monitor::table1_config(1);
    const AreaReport base = monitor_core_area(cfg);
    for (auto& leg : cfg.legs)
        leg.width *= 2.0;
    const AreaReport bigger = monitor_core_area(cfg);
    EXPECT_GT(bigger.area, base.area);
}

} // namespace
} // namespace xysig::layout
