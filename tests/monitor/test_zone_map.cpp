// Zone map tests: the Table I bank must reproduce exactly the 16 zone codes
// the paper lists in Fig. 6, with Gray-coded adjacency.

#include "monitor/zone_map.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "monitor/table1.h"
#include "support/pin.h"

namespace xysig::monitor {
namespace {

/// The codes of a map's zones, ascending.
std::vector<unsigned> codes_of(const ZoneMap& zm) {
    std::vector<unsigned> codes;
    for (const Zone& z : zm.zones())
        codes.push_back(z.code);
    return codes;
}

TEST(MonitorBank, CodeBitOrderMonitorOneIsMsb) {
    MonitorBank bank;
    bank.add(std::make_unique<LinearBoundary>(1.0, 0.0, -0.5)); // x > 0.5
    bank.add(std::make_unique<LinearBoundary>(0.0, 1.0, -0.5)); // y > 0.5
    EXPECT_EQ(bank.code(0.75, 0.25), 0b10u); // monitor 1 fires -> MSB
    EXPECT_EQ(bank.code(0.25, 0.75), 0b01u);
    EXPECT_EQ(bank.code(0.75, 0.75), 0b11u);
    EXPECT_EQ(bank.code(0.25, 0.25), 0b00u);
}

TEST(MonitorBank, CopyIsDeep) {
    MonitorBank bank;
    bank.add(std::make_unique<LinearBoundary>(1.0, 0.0, -0.5));
    MonitorBank copy = bank;
    EXPECT_EQ(copy.size(), 1u);
    EXPECT_EQ(copy.code(0.75, 0.0), bank.code(0.75, 0.0));
}

TEST(ZoneMap, Table1BankReproducesFig6CodeSet) {
    const MonitorBank bank = build_table1_bank();
    const ZoneMap zm(bank, 256);

    // The exact 16 codes labelled in the paper's Fig. 6.
    const std::vector<unsigned> paper_codes = {0,  1,  4,  5,  12, 13, 20, 28,
                                               30, 37, 45, 47, 60, 61, 62, 63};
    EXPECT_EQ(zm.zone_count(), paper_codes.size());
    EXPECT_EQ(codes_of(zm), paper_codes);
}

TEST(ZoneMap, Table1MapIsPinned) {
    // Every zone's code, cell count and centroid, and the Gray fraction, of
    // a 64 x 64 map, bit for bit.
    const MonitorBank bank = build_table1_bank();
    const ZoneMap zm(bank, 64);
    std::vector<double> zones;
    for (const Zone& z : zm.zones())
        zones.insert(zones.end(), {static_cast<double>(z.code),
                                   static_cast<double>(z.cell_count), z.rep_x, z.rep_y});
    EXPECT_EQ(zm.zone_count(), 16u);
    EXPECT_EQ(fnv1a64(zones), 0xc2e5275d601ca456ULL);
    EXPECT_EQ(bits_of(zm.gray_violation_fraction()), 0x3f9a5c42ea33b4f9ULL);
}

TEST(ZoneMap, AdjacentZonesDifferInOneBit) {
    const MonitorBank bank = build_table1_bank();
    const ZoneMap zm(bank, 256);
    // Raster artefacts at curve intersections allow a small tolerance.
    EXPECT_LT(zm.gray_violation_fraction(), 0.02);
}

TEST(ZoneMap, OriginZoneIsAllZeros) {
    const MonitorBank bank = build_table1_bank();
    const ZoneMap zm(bank, 128);
    EXPECT_EQ(zm.code_at(0.02, 0.005), 0u);
}

TEST(ZoneMap, TopRightIsAllOnes) {
    const MonitorBank bank = build_table1_bank();
    const ZoneMap zm(bank, 128);
    EXPECT_EQ(zm.code_at(0.85, 0.95), 63u);
}

TEST(ZoneMap, MirrorSymmetryAcrossDiagonal) {
    // The bank's symmetric curves (3-5) plus paired curves (1,2) make the
    // zone structure mirror-symmetric: Fig. 6 shows e.g. 010100 (20) at
    // (0.63, 0.20) mirrored by 100101 (37) at (0.20, 0.63).
    const MonitorBank bank = build_table1_bank();
    const ZoneMap zm(bank, 256);
    const std::vector<unsigned> codes = codes_of(zm);
    ASSERT_TRUE(std::binary_search(codes.begin(), codes.end(), 20u));
    ASSERT_TRUE(std::binary_search(codes.begin(), codes.end(), 37u));
    const Zone& z20 = zm.zone(20);
    const Zone& z37 = zm.zone(37);
    EXPECT_NEAR(z20.rep_x, z37.rep_y, 0.03);
    EXPECT_NEAR(z20.rep_y, z37.rep_x, 0.03);
}

TEST(ZoneMap, AdjacencyContainsOriginNeighbours) {
    const MonitorBank bank = build_table1_bank();
    const ZoneMap zm(bank, 256);
    // Zone 0 borders zone 1 across curve 6 near the origin (Fig. 6).
    EXPECT_TRUE(zm.adjacency().contains({0u, 1u}));
    // Zone 0 borders zone 4 across curve 4.
    EXPECT_TRUE(zm.adjacency().contains({0u, 4u}));
}

TEST(ZoneMap, LinearBaselineBankProducesZones) {
    const MonitorBank bank = build_linear_approximation_bank();
    ASSERT_EQ(bank.size(), 6u);
    const ZoneMap zm(bank, 128);
    // Straight lines still partition the plane into a comparable zone count.
    EXPECT_GE(zm.zone_count(), 10u);
    EXPECT_LE(zm.zone_count(), 25u);
    EXPECT_LT(zm.gray_violation_fraction(), 0.05);
}

TEST(ZoneMap, RejectsCoarseResolution) {
    const MonitorBank bank = build_table1_bank();
    EXPECT_THROW(ZoneMap(bank, 4), ContractError);
}

} // namespace
} // namespace xysig::monitor
