#ifndef XYSIG_REPORT_FIGURE_H
#define XYSIG_REPORT_FIGURE_H

/// \file figure.h
/// Bench output helpers: each reproduced figure is emitted as labelled CSV
/// series (machine-readable) plus an ASCII rendering (eyeball-readable),
/// and paper-vs-measured anchors are printed as a comparison table.

#include <ostream>
#include <string>
#include <vector>

namespace xysig::report {

/// One named data series.
struct Series {
    std::string name;
    std::vector<double> xs;
    std::vector<double> ys;
};

/// A reproduced figure: id ("fig8"), title, axis labels and its series.
class Figure {
public:
    Figure(std::string id, std::string title, std::string x_label,
           std::string y_label);

    void add_series(Series series);
    [[nodiscard]] const std::vector<Series>& series() const noexcept {
        return series_;
    }

    /// Prints header, one CSV block per series, and a combined ASCII plot
    /// (each series gets its own glyph: 1-9, a-z).
    void print(std::ostream& out) const;

private:
    std::string id_;
    std::string title_;
    std::string x_label_;
    std::string y_label_;
    std::vector<Series> series_;
};

/// Paper-vs-measured anchor table.
class PaperComparison {
public:
    explicit PaperComparison(std::string title);

    void add(const std::string& quantity, const std::string& paper_value,
             const std::string& measured_value, const std::string& note = "");
    void add(const std::string& quantity, const std::string& paper_value,
             double measured_value, const std::string& note = "");

    void print(std::ostream& out) const;

private:
    std::string title_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace xysig::report

#endif // XYSIG_REPORT_FIGURE_H
