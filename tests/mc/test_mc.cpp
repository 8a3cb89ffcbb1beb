// Monte-Carlo engine, mismatch model and envelope tests.

#include <cmath>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/statistics.h"
#include "mc/mismatch.h"
#include "mc/monte_carlo.h"

namespace xysig::mc {
namespace {

TEST(RunMonteCarlo, DeterministicInSeed) {
    const auto fn = [](Rng& rng) { return rng.normal(0.0, 1.0); };
    const auto a = run_monte_carlo(50, 123, fn);
    const auto b = run_monte_carlo(50, 123, fn);
    EXPECT_EQ(a, b);
    const auto c = run_monte_carlo(50, 124, fn);
    EXPECT_NE(a, c);
}

TEST(RunMonteCarlo, SamplesAreIndependentStreams) {
    // Each sample forks its own stream: consuming more draws inside one
    // sample must not change the others.
    const auto one_draw = [](Rng& rng) { return rng.uniform(); };
    const auto two_draws = [](Rng& rng) {
        (void)rng.uniform();
        return rng.uniform();
    };
    const auto a = run_monte_carlo(10, 5, one_draw);
    const auto b = run_monte_carlo(10, 5, two_draws);
    // First draws of each sample's stream coincide for a:
    // different draw *within* the stream for b, but stream seeds match, so
    // sample 0 of both used the same stream.
    EXPECT_NE(a[0], b[0]);
    // Determinism of the fork sequence:
    const auto a2 = run_monte_carlo(10, 5, one_draw);
    EXPECT_EQ(a, a2);
}

TEST(Pelgrom, SigmaScalesInverseSqrtArea) {
    const double s1 = sigma_vt(1e-6, 180e-9);
    const double s4 = sigma_vt(4e-6, 180e-9); // 4x area
    EXPECT_NEAR(s1 / s4, 2.0, 1e-12);
    EXPECT_GT(s1, 0.0);
}

TEST(Pelgrom, MagnitudeIsMillivoltsFor65nmDevices) {
    // W = 1.8 um, L = 180 nm: sigma(Vt) should be single-digit mV.
    const double s = sigma_vt(1.8e-6, 180e-9);
    EXPECT_GT(s, 1e-3);
    EXPECT_LT(s, 20e-3);
}

TEST(Envelope, PercentilesAreOrdered) {
    const auto curve_fn = [](Rng& rng, const std::vector<double>& xs) {
        const double offset = rng.normal(0.0, 1.0);
        std::vector<double> ys;
        ys.reserve(xs.size());
        for (double x : xs)
            ys.push_back(x + offset);
        return ys;
    };
    const auto env = monte_carlo_envelope(100, 42, {0.0, 1.0, 2.0}, curve_fn);
    for (std::size_t i = 0; i < env.xs.size(); ++i) {
        EXPECT_LE(env.lo[i], env.p05[i]);
        EXPECT_LE(env.p05[i], env.p50[i]);
        EXPECT_LE(env.p50[i], env.p95[i]);
        EXPECT_LE(env.p95[i], env.hi[i]);
    }
}

TEST(Envelope, ContainsNominalCurve) {
    const auto curve_fn = [](Rng& rng, const std::vector<double>& xs) {
        const double offset = rng.normal(0.0, 0.1);
        std::vector<double> ys;
        for (double x : xs)
            ys.push_back(2.0 * x + offset);
        return ys;
    };
    const auto env = monte_carlo_envelope(200, 9, {0.0, 0.5, 1.0}, curve_fn);
    const std::vector<double> nominal = {0.0, 1.0, 2.0};
    EXPECT_TRUE(env.contains(nominal));
    const std::vector<double> off = {1.0, 2.0, 3.0};
    EXPECT_FALSE(env.contains(off));
}

TEST(Envelope, NanValuesExcludedFromStatistics) {
    const auto curve_fn = [](Rng& rng, const std::vector<double>& xs) {
        std::vector<double> ys;
        for (double x : xs) {
            // Half the curves have no value at x = 1.
            if (x == 1.0 && rng.bernoulli(0.5))
                ys.push_back(std::nan(""));
            else
                ys.push_back(x);
        }
        return ys;
    };
    const auto env = monte_carlo_envelope(100, 17, {0.0, 1.0}, curve_fn);
    EXPECT_NEAR(env.p50[1], 1.0, 1e-12); // finite curves dominate the stats
}

TEST(Envelope, MismatchedCurveLengthIsError) {
    const auto bad_fn = [](Rng&, const std::vector<double>&) {
        return std::vector<double>{1.0};
    };
    EXPECT_THROW((void)monte_carlo_envelope(10, 1, {0.0, 1.0}, bad_fn),
                 ContractError);
}

} // namespace
} // namespace xysig::mc
