// Unit tests for common/math_util: grids, root finding and the exact
// rational arithmetic behind Lissajous period computation.

#include "common/math_util.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/error.h"

namespace xysig {
namespace {

TEST(Linspace, EndpointsAndSpacing) {
    const auto g = linspace(0.0, 1.0, 5);
    ASSERT_EQ(g.size(), 5u);
    EXPECT_DOUBLE_EQ(g.front(), 0.0);
    EXPECT_DOUBLE_EQ(g.back(), 1.0);
    EXPECT_DOUBLE_EQ(g[1], 0.25);
    EXPECT_DOUBLE_EQ(g[2], 0.5);
}

TEST(Linspace, RejectsSinglePoint) {
    EXPECT_THROW((void)linspace(0.0, 1.0, 1), ContractError);
}

TEST(Clamp, InsideAndOutside) {
    EXPECT_DOUBLE_EQ(clamp(0.5, 0.0, 1.0), 0.5);
    EXPECT_DOUBLE_EQ(clamp(-2.0, 0.0, 1.0), 0.0);
    EXPECT_DOUBLE_EQ(clamp(7.0, 0.0, 1.0), 1.0);
}

TEST(Softplus, MatchesDirectFormulaInSafeRange) {
    for (double x : {-5.0, -1.0, 0.0, 0.7, 3.0, 20.0})
        EXPECT_NEAR(softplus(x), std::log1p(std::exp(x)), 1e-12);
}

TEST(Softplus, LargeArgumentIsLinearNoOverflow) {
    EXPECT_NEAR(softplus(500.0), 500.0, 1e-9);
    EXPECT_NEAR(softplus(-500.0), 0.0, 1e-12);
}

TEST(Logistic, SymmetryAndLimits) {
    EXPECT_DOUBLE_EQ(logistic(0.0), 0.5);
    EXPECT_NEAR(logistic(40.0), 1.0, 1e-12);
    EXPECT_NEAR(logistic(-40.0), 0.0, 1e-12);
    for (double x : {-3.0, -0.5, 0.2, 2.0})
        EXPECT_NEAR(logistic(x) + logistic(-x), 1.0, 1e-12);
}

TEST(Bisect, FindsRootOfCubic) {
    const auto f = [](double x) { return x * x * x - 2.0; };
    const double r = bisect(f, 0.0, 2.0);
    EXPECT_NEAR(r, std::cbrt(2.0), 1e-10);
}

TEST(Bisect, AcceptsRootAtEndpoint) {
    const auto f = [](double x) { return x; };
    EXPECT_DOUBLE_EQ(bisect(f, 0.0, 1.0), 0.0);
}

TEST(Bisect, ThrowsWithoutSignChange) {
    const auto f = [](double x) { return x * x + 1.0; };
    EXPECT_THROW((void)bisect(f, -1.0, 1.0), NumericError);
}

TEST(GcdLcm, BasicIdentities) {
    EXPECT_EQ(gcd_i64(12, 18), 6);
    EXPECT_EQ(gcd_i64(-12, 18), 6);
    EXPECT_EQ(gcd_i64(0, 7), 7);
    EXPECT_EQ(gcd_i64(0, 0), 0);
    EXPECT_EQ(lcm_i64(4, 6), 12);
    EXPECT_EQ(lcm_i64(5, 7), 35);
    EXPECT_EQ(lcm_i64(0, 7), 0);
}

TEST(Rational, NormalisesSignAndGcd) {
    const Rational r(-6, -8);
    EXPECT_EQ(r.num(), 3);
    EXPECT_EQ(r.den(), 4);
    const Rational s(6, -8);
    EXPECT_EQ(s.num(), -3);
    EXPECT_EQ(s.den(), 4);
}

TEST(Rational, ArithmeticStaysReduced) {
    const Rational a(1, 6);
    const Rational b(1, 3);
    const Rational sum = a + b; // 1/2
    EXPECT_EQ(sum.num(), 1);
    EXPECT_EQ(sum.den(), 2);
    const Rational prod = a * b; // 1/18
    EXPECT_EQ(prod.num(), 1);
    EXPECT_EQ(prod.den(), 18);
}

TEST(Rational, ZeroDenominatorThrows) {
    EXPECT_THROW(Rational(1, 0), NumericError);
}

TEST(ToRational, RecoversExactRatios) {
    const Rational r = to_rational(0.75);
    EXPECT_EQ(r.num(), 3);
    EXPECT_EQ(r.den(), 4);
    const Rational t = to_rational(3.0);
    EXPECT_EQ(t.num(), 3);
    EXPECT_EQ(t.den(), 1);
}

TEST(ToRational, ApproximatesIrrationalWithinBound) {
    const Rational r = to_rational(kPi, 1000);
    EXPECT_LE(r.den(), 1000);
    EXPECT_NEAR(r.value(), kPi, 1e-6); // 355/113 territory
}

TEST(ToRational, HandlesNegativeValues) {
    const Rational r = to_rational(-1.5);
    EXPECT_EQ(r.num(), -3);
    EXPECT_EQ(r.den(), 2);
}

} // namespace
} // namespace xysig
