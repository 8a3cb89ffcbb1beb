// Property-based tests of the NDF metric over randomly generated
// chronogram pairs: metric axioms, bounds, invariances. Parameterised over
// RNG seeds so each instantiation explores a different random structure.

#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/ndf.h"
#include "support/ndf_sampled.h"

namespace xysig::core {
namespace {

using capture::Chronogram;
using capture::CodeEvent;

/// Random chronogram: 1..12 events over the given period, 4-bit codes.
Chronogram random_chronogram(Rng& rng, double period) {
    const auto n_events = static_cast<std::size_t>(rng.uniform_int(1, 12));
    std::set<double> times;
    times.insert(0.0);
    while (times.size() < n_events)
        times.insert(rng.uniform(0.0, period * 0.999));

    std::vector<CodeEvent> events;
    unsigned prev = 16; // sentinel outside the 4-bit space
    for (const double t : times) {
        unsigned code = static_cast<unsigned>(rng.uniform_int(0, 15));
        if (code == prev)
            code = (code + 1) % 16;
        events.push_back({t, code});
        prev = code;
    }
    return Chronogram(period, 4, std::move(events));
}

class NdfProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NdfProperties, IdentityOfIndiscernibles) {
    Rng rng(GetParam());
    const Chronogram a = random_chronogram(rng, 1e-3);
    EXPECT_DOUBLE_EQ(ndf(a, a), 0.0);
}

TEST_P(NdfProperties, Symmetry) {
    Rng rng(GetParam());
    const Chronogram a = random_chronogram(rng, 1e-3);
    const Chronogram b = random_chronogram(rng, 1e-3);
    EXPECT_DOUBLE_EQ(ndf(a, b), ndf(b, a));
}

TEST_P(NdfProperties, NonNegativeAndBoundedByCodeWidth) {
    Rng rng(GetParam());
    const Chronogram a = random_chronogram(rng, 1e-3);
    const Chronogram b = random_chronogram(rng, 1e-3);
    const double v = ndf(a, b);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 4.0); // 4-bit codes: dH <= 4 everywhere
}

TEST_P(NdfProperties, TriangleInequality) {
    Rng rng(GetParam());
    const Chronogram a = random_chronogram(rng, 1e-3);
    const Chronogram b = random_chronogram(rng, 1e-3);
    const Chronogram c = random_chronogram(rng, 1e-3);
    EXPECT_LE(ndf(a, c), ndf(a, b) + ndf(b, c) + 1e-12);
}

TEST_P(NdfProperties, TimeScaleInvariance) {
    // NDF is normalised by the period: stretching both chronograms by the
    // same factor leaves it unchanged.
    Rng rng(GetParam());
    const Chronogram a = random_chronogram(rng, 1e-3);
    const Chronogram b = random_chronogram(rng, 1e-3);

    auto stretch = [](const Chronogram& ch, double k) {
        std::vector<CodeEvent> events;
        for (const auto& ev : ch.events())
            events.push_back({ev.t * k, ev.code});
        return Chronogram(ch.period() * k, ch.code_bits(), std::move(events));
    };
    const double v1 = ndf(a, b);
    const double v2 = ndf(stretch(a, 7.5), stretch(b, 7.5));
    EXPECT_NEAR(v1, v2, 1e-12);
}

TEST_P(NdfProperties, SampledEstimatorConverges) {
    Rng rng(GetParam());
    const Chronogram a = random_chronogram(rng, 1e-3);
    const Chronogram b = random_chronogram(rng, 1e-3);
    EXPECT_NEAR(ndf_sampled(a, b, 200000), ndf(a, b), 5e-3);
}

TEST_P(NdfProperties, ProfileTilesPeriodAndIntegralMatches) {
    Rng rng(GetParam());
    const Chronogram a = random_chronogram(rng, 1e-3);
    const Chronogram b = random_chronogram(rng, 1e-3);
    const auto profile = hamming_profile(a, b);
    ASSERT_FALSE(profile.empty());
    EXPECT_DOUBLE_EQ(profile.front().t_begin, 0.0);
    double acc = 0.0;
    for (std::size_t i = 0; i < profile.size(); ++i) {
        if (i > 0)
            EXPECT_DOUBLE_EQ(profile[i].t_begin, profile[i - 1].t_end);
        acc += profile[i].distance * (profile[i].t_end - profile[i].t_begin);
    }
    EXPECT_NEAR(profile.back().t_end, 1e-3, 1e-15);
    EXPECT_NEAR(acc / 1e-3, ndf(a, b), 1e-12);
}

TEST_P(NdfProperties, BitComplementGivesFullDistance) {
    // Complementing every code of one chronogram yields NDF == code width
    // when compared against the original.
    Rng rng(GetParam());
    const Chronogram a = random_chronogram(rng, 1e-3);
    std::vector<CodeEvent> inverted;
    for (const auto& ev : a.events())
        inverted.push_back({ev.t, ev.code ^ 0xFu});
    const Chronogram b(a.period(), 4, std::move(inverted));
    EXPECT_DOUBLE_EQ(ndf(a, b), 4.0);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, NdfProperties,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u,
                                           55u, 89u));

} // namespace
} // namespace xysig::core
