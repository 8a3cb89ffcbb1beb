#ifndef XYSIG_COMMON_STATISTICS_H
#define XYSIG_COMMON_STATISTICS_H

/// \file statistics.h
/// Descriptive statistics used by the Monte-Carlo engine, the noise
/// detectability analysis and the test suites.

#include <cstddef>
#include <span>
#include <vector>

namespace xysig {

/// Arithmetic mean. Requires a non-empty range.
[[nodiscard]] double mean(std::span<const double> xs);

/// Unbiased sample variance (n-1 denominator). Requires xs.size() >= 2.
[[nodiscard]] double variance(std::span<const double> xs);

/// Unbiased sample standard deviation. Requires xs.size() >= 2.
[[nodiscard]] double stddev(std::span<const double> xs);

/// Linear-interpolated percentile, p in [0,100]. Requires non-empty input.
[[nodiscard]] double percentile(std::span<const double> xs, double p);

/// Smallest / largest element. Requires non-empty input.
[[nodiscard]] double min_value(std::span<const double> xs);
[[nodiscard]] double max_value(std::span<const double> xs);

/// Least-squares straight line y = slope*x + intercept through the points.
struct LineFit {
    double slope = 0.0;
    double intercept = 0.0;
    double r_squared = 0.0; ///< coefficient of determination of the fit
};
/// Fits >= 2 points. Degenerate x (all equal) yields the defined fallback
/// {slope = 0, intercept = mean(y), r_squared = 0 (1 when y is constant
/// too)} instead of aborting; see the implementation note.
[[nodiscard]] LineFit fit_line(std::span<const double> xs, std::span<const double> ys);

/// Single-pass accumulator (Welford) for streaming mean/variance/min/max;
/// used where the Monte-Carlo engine cannot afford to keep all samples.
class RunningStats {
public:
    void add(double x) noexcept;

    [[nodiscard]] std::size_t count() const noexcept { return n_; }
    [[nodiscard]] double mean() const noexcept { return mean_; }
    /// Unbiased variance; requires count() >= 2.
    [[nodiscard]] double variance() const;
    [[nodiscard]] double stddev() const;
    [[nodiscard]] double min() const;
    [[nodiscard]] double max() const;

private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

} // namespace xysig

#endif // XYSIG_COMMON_STATISTICS_H
