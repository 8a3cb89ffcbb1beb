#include "monitor/boundary.h"

#include <cmath>

#include "common/contracts.h"
#include "common/math_util.h"
#include "common/strings.h"

namespace xysig::monitor {

namespace {
/// Orientation reference for boundaries passing exactly through the origin.
/// By the paper's Section IV-A, bit 0 is the side of the curve that holds
/// the origin; a curve through the origin has no such side, so this point,
/// just off the origin and below the diagonal, decides instead. The MOS
/// monitors use the same point (mos_boundary.cpp), so a straight-line
/// approximation bank orients each line the way the curve it approximates
/// is oriented.
constexpr double kRefX = 0.05;
constexpr double kRefY = 0.0;
/// y samples of trace_boundary's sign scan per column.
constexpr std::size_t kTraceYScan = 256;
} // namespace

LinearBoundary::LinearBoundary(double a, double b, double c) : a_(a), b_(b), c_(c) {
    // xylint: exact-compare(a degenerate all-zero line is a caller bug; only exact zeros are invalid)
    XYSIG_EXPECTS(a != 0.0 || b != 0.0);
    double at_origin = c_;
    // xylint: exact-compare(c=0 means the line passes exactly through the origin; probe the reference point instead)
    if (at_origin == 0.0)
        at_origin = a_ * kRefX + b_ * kRefY + c_;
    // xylint: exact-compare(orientation needs a strictly signed probe; exact zero is the only invalid value)
    XYSIG_EXPECTS(at_origin != 0.0); // line through the reference point too
    if (at_origin > 0.0) {
        a_ = -a_;
        b_ = -b_;
        c_ = -c_;
    }
}

double LinearBoundary::h(double x, double y) const { return a_ * x + b_ * y + c_; }

std::string LinearBoundary::fingerprint() const {
    // Post-normalisation coefficients, exact: equal fingerprints <=>
    // bit-identical h() everywhere.
    return "lin{" + format_double_exact(a_) + "," + format_double_exact(b_) +
           "," + format_double_exact(c_) + "}";
}

std::vector<CurvePoint> trace_boundary(const Boundary& boundary, double x_lo,
                                       double x_hi, std::size_t n_x) {
    XYSIG_EXPECTS(x_hi > x_lo);
    XYSIG_EXPECTS(n_x >= 2);

    std::vector<CurvePoint> points;
    const auto xs = linspace(x_lo, x_hi, n_x);
    const auto ys = linspace(kPlaneLo, kPlaneHi, kTraceYScan);
    for (const double x : xs) {
        double prev = boundary.h(x, ys[0]);
        for (std::size_t j = 1; j < ys.size(); ++j) {
            const double cur = boundary.h(x, ys[j]);
            // xylint: exact-compare(a sample exactly on the boundary IS the curve point; no bisection needed)
            if (prev == 0.0) {
                points.push_back({x, ys[j - 1]});
            } else if ((prev < 0.0) != (cur < 0.0)) {
                const double root = bisect(
                    [&](double y) { return boundary.h(x, y); }, ys[j - 1], ys[j]);
                points.push_back({x, root});
            }
            prev = cur;
        }
        // xylint: exact-compare(final sample exactly on the boundary is a curve point)
        if (prev == 0.0)
            points.push_back({x, ys.back()});
    }
    return points;
}

} // namespace xysig::monitor
