// Unit tests for descriptive statistics used by Monte-Carlo and
// detectability analyses.

#include "common/statistics.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"

namespace xysig {
namespace {

TEST(Mean, SimpleAverage) {
    const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(mean(xs), 2.5);
}

TEST(Mean, EmptyIsContractViolation) {
    const std::vector<double> xs;
    EXPECT_THROW((void)mean(xs), ContractError);
}

TEST(Variance, KnownValue) {
    const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    // population variance 4, sample variance 4*8/7
    EXPECT_NEAR(variance(xs), 32.0 / 7.0, 1e-12);
    EXPECT_NEAR(stddev(xs), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Percentile, MedianAndQuartiles) {
    const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 5.0};
    EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 3.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 5.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 2.0);
}

TEST(Percentile, InterpolatesBetweenRanks) {
    const std::vector<double> xs = {0.0, 10.0};
    EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 5.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 75.0), 7.5);
}

TEST(MinMax, Basics) {
    const std::vector<double> xs = {3.0, -1.0, 2.0};
    EXPECT_DOUBLE_EQ(min_value(xs), -1.0);
    EXPECT_DOUBLE_EQ(max_value(xs), 3.0);
}

TEST(FitLine, ExactLine) {
    const std::vector<double> xs = {0.0, 1.0, 2.0, 3.0};
    const std::vector<double> ys = {1.0, 3.0, 5.0, 7.0};
    const LineFit fit = fit_line(xs, ys);
    EXPECT_NEAR(fit.slope, 2.0, 1e-12);
    EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
    EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(FitLine, NoisyLineHasGoodR2) {
    Rng rng(42);
    std::vector<double> xs, ys;
    for (int i = 0; i < 200; ++i) {
        const double x = static_cast<double>(i) / 10.0;
        xs.push_back(x);
        ys.push_back(3.0 * x - 2.0 + rng.normal(0.0, 0.1));
    }
    const LineFit fit = fit_line(xs, ys);
    EXPECT_NEAR(fit.slope, 3.0, 0.05);
    EXPECT_NEAR(fit.intercept, -2.0, 0.2);
    EXPECT_GT(fit.r_squared, 0.99);
}

TEST(FitLine, ConstantXFallsBackToHorizontalMeanLine) {
    // Regression: degenerate x used to abort. Documented fallback: the
    // horizontal line through mean(y), explaining none of the y variance.
    const std::vector<double> xs = {2.0, 2.0, 2.0, 2.0};
    const std::vector<double> ys = {1.0, 3.0, 5.0, 7.0};
    const LineFit fit = fit_line(xs, ys);
    EXPECT_DOUBLE_EQ(fit.slope, 0.0);
    EXPECT_DOUBLE_EQ(fit.intercept, 4.0);
    EXPECT_DOUBLE_EQ(fit.r_squared, 0.0);
}

TEST(FitLine, AllPointsIdenticalIsExactFit) {
    const std::vector<double> xs = {2.0, 2.0, 2.0};
    const std::vector<double> ys = {3.0, 3.0, 3.0};
    const LineFit fit = fit_line(xs, ys);
    EXPECT_DOUBLE_EQ(fit.slope, 0.0);
    EXPECT_DOUBLE_EQ(fit.intercept, 3.0);
    EXPECT_DOUBLE_EQ(fit.r_squared, 1.0);
}

TEST(FitLine, ConstantYIsExactHorizontalFit) {
    const std::vector<double> xs = {0.0, 1.0, 2.0};
    const std::vector<double> ys = {4.0, 4.0, 4.0};
    const LineFit fit = fit_line(xs, ys);
    EXPECT_DOUBLE_EQ(fit.slope, 0.0);
    EXPECT_DOUBLE_EQ(fit.intercept, 4.0);
    EXPECT_DOUBLE_EQ(fit.r_squared, 1.0);
}

TEST(RunningStats, MatchesBatchComputation) {
    const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    RunningStats rs;
    for (double x : xs)
        rs.add(x);
    EXPECT_EQ(rs.count(), xs.size());
    EXPECT_NEAR(rs.mean(), mean(xs), 1e-12);
    EXPECT_NEAR(rs.variance(), variance(xs), 1e-12);
    EXPECT_DOUBLE_EQ(rs.min(), 2.0);
    EXPECT_DOUBLE_EQ(rs.max(), 9.0);
}

TEST(RunningStats, VarianceRequiresTwoSamples) {
    RunningStats rs;
    rs.add(1.0);
    EXPECT_THROW((void)rs.variance(), ContractError);
}

} // namespace
} // namespace xysig
