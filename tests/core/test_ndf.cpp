// NDF metric tests: hand-computed integrals, metric properties, and the
// sampled-estimator cross-check.

#include "core/ndf.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "support/ndf_sampled.h"

namespace xysig::core {
namespace {

using capture::Chronogram;

TEST(HammingDistance, Basics) {
    EXPECT_EQ(hamming_distance(0u, 0u), 0u);
    EXPECT_EQ(hamming_distance(0b111111u, 0u), 6u);
    EXPECT_EQ(hamming_distance(0b011110u, 0b011100u), 1u);
    EXPECT_EQ(hamming_distance(0b111110u, 0b011100u), 2u); // paper's [48,50]us case
}

TEST(Ndf, IdenticalChronogramsGiveZero) {
    const Chronogram a(1.0, 4, {{0.0, 3u}, {0.4, 7u}});
    EXPECT_DOUBLE_EQ(ndf(a, a), 0.0);
}

TEST(Ndf, HandComputedExample) {
    // a: code 0 on [0, 0.5), code 1 on [0.5, 1).
    // b: code 0 on [0, 0.25), code 3 on [0.25, 1).
    // dH: [0,0.25): 0 ; [0.25,0.5): dH(0,3)=2 ; [0.5,1): dH(1,3)=1
    // NDF = 0.25*2 + 0.5*1 = 1.0... over T=1: 1.0.
    const Chronogram a(1.0, 2, {{0.0, 0u}, {0.5, 1u}});
    const Chronogram b(1.0, 2, {{0.0, 0u}, {0.25, 3u}});
    EXPECT_DOUBLE_EQ(ndf(a, b), 0.25 * 2.0 + 0.5 * 1.0);
}

TEST(Ndf, IsSymmetric) {
    const Chronogram a(1.0, 3, {{0.0, 1u}, {0.3, 5u}, {0.7, 2u}});
    const Chronogram b(1.0, 3, {{0.0, 0u}, {0.5, 7u}});
    EXPECT_DOUBLE_EQ(ndf(a, b), ndf(b, a));
}

TEST(Ndf, BoundedByCodeWidth) {
    const Chronogram a(1.0, 3, {{0.0, 0u}});
    const Chronogram b(1.0, 3, {{0.0, 7u}});
    EXPECT_DOUBLE_EQ(ndf(a, b), 3.0); // all 3 bits differ all the time
}

TEST(Ndf, TriangleInequalityOnExamples) {
    const Chronogram a(1.0, 4, {{0.0, 0u}, {0.5, 15u}});
    const Chronogram b(1.0, 4, {{0.0, 3u}, {0.6, 12u}});
    const Chronogram c(1.0, 4, {{0.0, 5u}});
    // Pointwise Hamming distance satisfies the triangle inequality, so its
    // time average must too.
    EXPECT_LE(ndf(a, c), ndf(a, b) + ndf(b, c) + 1e-12);
}

TEST(Ndf, SlightPeriodMismatchTolerated) {
    const Chronogram a(1.0, 2, {{0.0, 0u}, {0.5, 1u}});
    const Chronogram b(1.0005, 2, {{0.0, 0u}, {0.5, 1u}});
    EXPECT_NO_THROW((void)ndf(a, b));
    const Chronogram c(1.2, 2, {{0.0, 0u}});
    EXPECT_THROW((void)ndf(a, c), ContractError);
}

TEST(HammingProfile, SegmentsTileThePeriodAndMerge) {
    const Chronogram a(1.0, 2, {{0.0, 0u}, {0.5, 1u}});
    const Chronogram b(1.0, 2, {{0.0, 0u}, {0.25, 3u}});
    const auto prof = hamming_profile(a, b);
    ASSERT_EQ(prof.size(), 3u);
    EXPECT_DOUBLE_EQ(prof[0].t_begin, 0.0);
    EXPECT_EQ(prof[0].distance, 0u);
    EXPECT_DOUBLE_EQ(prof[1].t_begin, 0.25);
    EXPECT_EQ(prof[1].distance, 2u);
    EXPECT_DOUBLE_EQ(prof[2].t_begin, 0.5);
    EXPECT_EQ(prof[2].distance, 1u);
    EXPECT_DOUBLE_EQ(prof[2].t_end, 1.0);
    for (std::size_t i = 1; i < prof.size(); ++i)
        EXPECT_DOUBLE_EQ(prof[i].t_begin, prof[i - 1].t_end);
}

TEST(NdfSampled, ConvergesToExact) {
    const Chronogram a(1.0, 3, {{0.0, 1u}, {0.37, 5u}, {0.81, 2u}});
    const Chronogram b(1.0, 3, {{0.0, 0u}, {0.52, 7u}});
    const double exact = ndf(a, b);
    EXPECT_NEAR(ndf_sampled(a, b, 100000), exact, 1e-3);
}

} // namespace
} // namespace xysig::core
