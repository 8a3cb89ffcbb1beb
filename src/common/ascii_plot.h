#ifndef XYSIG_COMMON_ASCII_PLOT_H
#define XYSIG_COMMON_ASCII_PLOT_H

/// \file ascii_plot.h
/// Character-cell plotting so every bench can render its figure inline in the
/// terminal output (the paper's figures are reproduced as data series + an
/// ASCII rendering for eyeballing the shape).

#include <ostream>
#include <span>
#include <string>
#include <vector>

namespace xysig {

/// Fixed-size character canvas with data-space to cell-space mapping.
class AsciiCanvas {
public:
    /// Data-space window [x_min,x_max] x [y_min,y_max] rendered into a
    /// width x height character grid.
    AsciiCanvas(double x_min, double x_max, double y_min, double y_max,
                std::size_t width = 72, std::size_t height = 28);

    /// Plots one point; out-of-window points are silently clipped.
    void point(double x, double y, char glyph = '*');

    /// Plots a polyline as a dense sequence of points.
    void polyline(std::span<const double> xs, std::span<const double> ys,
                  char glyph = '*');

    /// Renders with a simple frame and axis extents annotated.
    void print(std::ostream& out, const std::string& title = {}) const;

private:
    double x_min_, x_max_, y_min_, y_max_;
    std::size_t width_, height_;
    std::vector<std::string> grid_;
};

} // namespace xysig

#endif // XYSIG_COMMON_ASCII_PLOT_H
