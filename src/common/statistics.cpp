#include "common/statistics.h"

#include <algorithm>
#include <cmath>

#include "common/contracts.h"

namespace xysig {

double mean(std::span<const double> xs) {
    XYSIG_EXPECTS(!xs.empty());
    double acc = 0.0;
    for (double x : xs)
        acc += x;
    return acc / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
    XYSIG_EXPECTS(xs.size() >= 2);
    const double m = mean(xs);
    double acc = 0.0;
    for (double x : xs)
        acc += (x - m) * (x - m);
    return acc / static_cast<double>(xs.size() - 1);
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double percentile(std::span<const double> xs, double p) {
    XYSIG_EXPECTS(!xs.empty());
    XYSIG_EXPECTS(p >= 0.0 && p <= 100.0);
    std::vector<double> sorted(xs.begin(), xs.end());
    std::sort(sorted.begin(), sorted.end());
    if (sorted.size() == 1)
        return sorted.front();
    const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double min_value(std::span<const double> xs) {
    XYSIG_EXPECTS(!xs.empty());
    return *std::min_element(xs.begin(), xs.end());
}

double max_value(std::span<const double> xs) {
    XYSIG_EXPECTS(!xs.empty());
    return *std::max_element(xs.begin(), xs.end());
}

LineFit fit_line(std::span<const double> xs, std::span<const double> ys) {
    XYSIG_EXPECTS(xs.size() == ys.size());
    XYSIG_EXPECTS(xs.size() >= 2);
    const double mx = mean(xs);
    const double my = mean(ys);
    double sxy = 0.0, sxx = 0.0, syy = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        const double dx = xs[i] - mx;
        const double dy = ys[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    LineFit fit;
    if (sxx <= 0.0) {
        // All x equal: the regression of y on x is underdetermined. The
        // minimiser we return is the horizontal line through the mean —
        // defined, finite, and it keeps whole sweeps alive when one grid
        // column degenerates. It explains none of the y variance (r^2 = 0)
        // unless y is constant too, in which case the fit is exact.
        fit.slope = 0.0;
        fit.intercept = my;
        // xylint: exact-compare(exactly-constant column degenerate case)
        fit.r_squared = (syy == 0.0) ? 1.0 : 0.0;
        return fit;
    }
    fit.slope = sxy / sxx;
    fit.intercept = my - fit.slope * mx;
    // xylint: exact-compare(exactly-constant column degenerate case)
    fit.r_squared = (syy == 0.0) ? 1.0 : (sxy * sxy) / (sxx * syy);
    return fit;
}

void RunningStats::add(double x) noexcept {
    if (n_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
    XYSIG_EXPECTS(n_ >= 2);
    return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
    XYSIG_EXPECTS(n_ >= 1);
    return min_;
}

double RunningStats::max() const {
    XYSIG_EXPECTS(n_ >= 1);
    return max_;
}

} // namespace xysig
