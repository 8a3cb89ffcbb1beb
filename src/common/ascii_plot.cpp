#include "common/ascii_plot.h"

#include <algorithm>
#include <cmath>

#include "common/contracts.h"
#include "common/strings.h"

namespace xysig {

AsciiCanvas::AsciiCanvas(double x_min, double x_max, double y_min, double y_max,
                         std::size_t width, std::size_t height)
    : x_min_(x_min), x_max_(x_max), y_min_(y_min), y_max_(y_max), width_(width),
      height_(height), grid_(height, std::string(width, ' ')) {
    XYSIG_EXPECTS(x_max > x_min);
    XYSIG_EXPECTS(y_max > y_min);
    XYSIG_EXPECTS(width >= 8 && height >= 4);
}

void AsciiCanvas::point(double x, double y, char glyph) {
    if (!std::isfinite(x) || !std::isfinite(y))
        return;
    if (x < x_min_ || x > x_max_ || y < y_min_ || y > y_max_)
        return;
    const double fx = (x - x_min_) / (x_max_ - x_min_);
    const double fy = (y - y_min_) / (y_max_ - y_min_);
    auto col = static_cast<std::size_t>(fx * static_cast<double>(width_ - 1) + 0.5);
    auto row = static_cast<std::size_t>(fy * static_cast<double>(height_ - 1) + 0.5);
    grid_[height_ - 1 - row][col] = glyph; // row 0 is the top of the canvas
}

void AsciiCanvas::polyline(std::span<const double> xs, std::span<const double> ys,
                           char glyph) {
    XYSIG_EXPECTS(xs.size() == ys.size());
    if (xs.empty())
        return;
    point(xs[0], ys[0], glyph);
    for (std::size_t i = 1; i < xs.size(); ++i) {
        // Interpolate between consecutive samples so steep segments stay
        // connected on the canvas.
        const double dx = xs[i] - xs[i - 1];
        const double dy = ys[i] - ys[i - 1];
        const double span_x = (x_max_ - x_min_) / static_cast<double>(width_);
        const double span_y = (y_max_ - y_min_) / static_cast<double>(height_);
        const double steps_f = std::max(std::abs(dx) / span_x, std::abs(dy) / span_y);
        const int steps = std::max(1, static_cast<int>(std::ceil(steps_f)));
        for (int s = 1; s <= steps; ++s) {
            const double t = static_cast<double>(s) / steps;
            point(xs[i - 1] + t * dx, ys[i - 1] + t * dy, glyph);
        }
    }
}

void AsciiCanvas::print(std::ostream& out, const std::string& title) const {
    if (!title.empty())
        out << title << '\n';
    out << '+' << std::string(width_, '-') << "+\n";
    for (const auto& row : grid_)
        out << '|' << row << "|\n";
    out << '+' << std::string(width_, '-') << "+\n";
    out << "x: [" << format_double(x_min_, 4) << ", " << format_double(x_max_, 4)
        << "]  y: [" << format_double(y_min_, 4) << ", " << format_double(y_max_, 4)
        << "]\n";
}

} // namespace xysig
