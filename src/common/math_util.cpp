#include "common/math_util.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/contracts.h"

namespace xysig {

std::vector<double> linspace(double lo, double hi, std::size_t n) {
    XYSIG_EXPECTS(n >= 2);
    std::vector<double> out(n);
    const double step = (hi - lo) / static_cast<double>(n - 1);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = lo + static_cast<double>(i) * step;
    out.back() = hi; // avoid accumulated rounding at the endpoint
    return out;
}

double clamp(double x, double lo, double hi) {
    XYSIG_EXPECTS(lo <= hi);
    return std::min(std::max(x, lo), hi);
}

double softplus(double x) noexcept {
    // For large x, ln(1+e^x) = x + ln(1+e^-x) ~= x; switch to avoid overflow.
    if (x > 30.0)
        return x;
    if (x < -30.0)
        return std::exp(x); // ln(1+e^x) ~= e^x for very negative x
    return std::log1p(std::exp(x));
}

double logistic(double x) noexcept {
    if (x >= 0.0) {
        const double e = std::exp(-x);
        return 1.0 / (1.0 + e);
    }
    const double e = std::exp(x);
    return e / (1.0 + e);
}

double bisect(const std::function<double(double)>& f, double lo, double hi) {
    constexpr double kXTol = 1e-12;
    constexpr int kMaxIterations = 200;
    XYSIG_EXPECTS(lo <= hi);
    double flo = f(lo);
    double fhi = f(hi);
    if (flo == 0.0) // xylint: exact-compare(an exact root ends bisection early)
        return lo;
    if (fhi == 0.0) // xylint: exact-compare(an exact root ends bisection early)
        return hi;
    if ((flo > 0.0) == (fhi > 0.0))
        throw NumericError("bisect: endpoints do not bracket a root");

    for (int i = 0; i < kMaxIterations; ++i) {
        const double mid = 0.5 * (lo + hi);
        const double fmid = f(mid);
        // xylint: exact-compare(an exact root ends bisection early)
        if (fmid == 0.0 || (hi - lo) < kXTol)
            return mid;
        if ((fmid > 0.0) == (flo > 0.0)) {
            lo = mid;
            flo = fmid;
        } else {
            hi = mid;
        }
    }
    return 0.5 * (lo + hi);
}

std::int64_t gcd_i64(std::int64_t a, std::int64_t b) noexcept {
    a = std::abs(a);
    b = std::abs(b);
    while (b != 0) {
        const std::int64_t t = a % b;
        a = b;
        b = t;
    }
    return a;
}

std::int64_t lcm_i64(std::int64_t a, std::int64_t b) {
    if (a == 0 || b == 0)
        return 0;
    const std::int64_t g = gcd_i64(a, b);
    const std::int64_t part = std::abs(a) / g;
    const std::int64_t bb = std::abs(b);
    if (part > std::numeric_limits<std::int64_t>::max() / bb)
        throw NumericError("lcm_i64: overflow");
    return part * bb;
}

Rational::Rational(std::int64_t numerator, std::int64_t denominator) {
    if (denominator == 0)
        throw NumericError("Rational: zero denominator");
    if (denominator < 0) {
        numerator = -numerator;
        denominator = -denominator;
    }
    const std::int64_t g = gcd_i64(numerator, denominator);
    num_ = (g == 0) ? 0 : numerator / g;
    den_ = (g == 0) ? 1 : denominator / g;
}

Rational operator+(const Rational& a, const Rational& b) {
    return Rational{a.num_ * b.den_ + b.num_ * a.den_, a.den_ * b.den_};
}

Rational operator*(const Rational& a, const Rational& b) {
    return Rational{a.num_ * b.num_, a.den_ * b.den_};
}

Rational to_rational(double x, std::int64_t max_denominator) {
    XYSIG_EXPECTS(max_denominator >= 1);
    XYSIG_EXPECTS(std::isfinite(x));

    const bool negative = x < 0.0;
    double v = std::abs(x);

    // Continued fraction expansion with convergents p/q.
    std::int64_t p0 = 0, q0 = 1;
    std::int64_t p1 = 1, q1 = 0;
    for (int i = 0; i < 64; ++i) {
        const double a_f = std::floor(v);
        if (a_f > static_cast<double>(std::numeric_limits<std::int64_t>::max() / 2))
            break;
        const auto a = static_cast<std::int64_t>(a_f);
        const std::int64_t p2 = a * p1 + p0;
        const std::int64_t q2 = a * q1 + q0;
        if (q2 > max_denominator)
            break;
        p0 = p1;
        q0 = q1;
        p1 = p2;
        q1 = q2;
        const double frac = v - a_f;
        if (frac < 1e-15)
            break;
        v = 1.0 / frac;
    }
    if (q1 == 0)
        return Rational{0, 1};
    return Rational{negative ? -p1 : p1, q1};
}

} // namespace xysig
