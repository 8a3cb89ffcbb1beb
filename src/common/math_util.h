#ifndef XYSIG_COMMON_MATH_UTIL_H
#define XYSIG_COMMON_MATH_UTIL_H

/// \file math_util.h
/// Small numerical helpers shared across the library: grids, scalar root
/// finding, rational arithmetic for period computation.

#include <cstdint>
#include <functional>
#include <vector>

namespace xysig {

inline constexpr double kPi = 3.141592653589793238462643383279502884;
inline constexpr double kTwoPi = 2.0 * kPi;

/// Thermal voltage kT/q at 300 K, used by the MOSFET models.
inline constexpr double kThermalVoltage300K = 0.025852;

/// Linear interpolation between a and b; t in [0,1] maps to [a,b].
[[nodiscard]] constexpr double lerp(double a, double b, double t) noexcept {
    return a + t * (b - a);
}

/// n equally spaced points from lo to hi inclusive. n >= 2.
[[nodiscard]] std::vector<double> linspace(double lo, double hi, std::size_t n);

/// Clamp x into [lo, hi]. Requires lo <= hi.
[[nodiscard]] double clamp(double x, double lo, double hi);

/// Square helper so intent reads better than x*x at call sites with long
/// expressions.
[[nodiscard]] constexpr double square(double x) noexcept { return x * x; }

/// Numerically safe ln(1+exp(x)) (softplus); avoids overflow for large x.
[[nodiscard]] double softplus(double x) noexcept;

/// Derivative of softplus: logistic function 1/(1+exp(-x)).
[[nodiscard]] double logistic(double x) noexcept;

/// Finds a root of f in [lo, hi] by bisection, stopping once the bracket
/// is narrower than 1e-12 or after 200 halvings.
///
/// Requires f(lo) and f(hi) to have opposite signs (a zero at an endpoint is
/// accepted). Throws NumericError when the bracket is invalid.
[[nodiscard]] double bisect(const std::function<double(double)>& f, double lo,
                            double hi);

/// Exact rational number with i64 numerator/denominator, always normalised
/// (den > 0, gcd(num, den) == 1). Used to compute the common period of
/// multitone stimuli exactly.
class Rational {
public:
    constexpr Rational() = default;
    Rational(std::int64_t numerator, std::int64_t denominator);

    [[nodiscard]] std::int64_t num() const noexcept { return num_; }
    [[nodiscard]] std::int64_t den() const noexcept { return den_; }
    [[nodiscard]] double value() const noexcept {
        return static_cast<double>(num_) / static_cast<double>(den_);
    }

    friend Rational operator+(const Rational& a, const Rational& b);
    friend Rational operator*(const Rational& a, const Rational& b);
    friend bool operator==(const Rational& a, const Rational& b) noexcept = default;

private:
    std::int64_t num_ = 0;
    std::int64_t den_ = 1;
};

/// Greatest common divisor of |a| and |b|; gcd(0,0) == 0.
[[nodiscard]] std::int64_t gcd_i64(std::int64_t a, std::int64_t b) noexcept;

/// Least common multiple of |a| and |b|. Throws NumericError on overflow.
[[nodiscard]] std::int64_t lcm_i64(std::int64_t a, std::int64_t b);

/// Approximates x by a rational p/q with q <= max_denominator using continued
/// fractions. Used to detect rational frequency ratios of Lissajous signals.
[[nodiscard]] Rational to_rational(double x, std::int64_t max_denominator = 1 << 20);

} // namespace xysig

#endif // XYSIG_COMMON_MATH_UTIL_H
