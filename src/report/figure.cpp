#include "report/figure.h"

#include <algorithm>

#include "common/ascii_plot.h"
#include "common/contracts.h"
#include "common/csv.h"
#include "common/statistics.h"
#include "common/strings.h"
#include "common/table.h"

namespace xysig::report {

Figure::Figure(std::string id, std::string title, std::string x_label,
               std::string y_label)
    : id_(std::move(id)), title_(std::move(title)), x_label_(std::move(x_label)),
      y_label_(std::move(y_label)) {
    XYSIG_EXPECTS(!id_.empty());
}

void Figure::add_series(Series series) {
    XYSIG_EXPECTS(series.xs.size() == series.ys.size());
    XYSIG_EXPECTS(!series.xs.empty());
    series_.push_back(std::move(series));
}

void Figure::print(std::ostream& out) const {
    out << "=== [" << id_ << "] " << title_ << " ===\n";
    for (const auto& s : series_) {
        out << "-- series: " << s.name << " --\n";
        CsvWriter::write_series(out, x_label_, s.xs, y_label_ + ":" + s.name, s.ys);
    }
    if (series_.empty())
        return;

    double x_lo = series_.front().xs.front(), x_hi = x_lo;
    double y_lo = series_.front().ys.front(), y_hi = y_lo;
    for (const auto& s : series_) {
        x_lo = std::min(x_lo, min_value(s.xs));
        x_hi = std::max(x_hi, max_value(s.xs));
        y_lo = std::min(y_lo, min_value(s.ys));
        y_hi = std::max(y_hi, max_value(s.ys));
    }
    // xylint: exact-compare(exactly-degenerate axis range guard)
    if (x_hi == x_lo)
        x_hi = x_lo + 1.0;
    // xylint: exact-compare(exactly-degenerate axis range guard)
    if (y_hi == y_lo)
        y_hi = y_lo + 1.0;
    AsciiCanvas canvas(x_lo, x_hi, y_lo, y_hi);
    static constexpr char glyphs[] = "123456789abcdefghijklmnopqrstuvwxyz";
    for (std::size_t i = 0; i < series_.size(); ++i)
        canvas.polyline(series_[i].xs, series_[i].ys,
                        glyphs[i % (sizeof(glyphs) - 1)]);
    canvas.print(out, title_ + "  [x: " + x_label_ + ", y: " + y_label_ + "]");
    for (std::size_t i = 0; i < series_.size(); ++i)
        out << "  glyph '" << glyphs[i % (sizeof(glyphs) - 1)]
            << "' = " << series_[i].name << "\n";
}

PaperComparison::PaperComparison(std::string title) : title_(std::move(title)) {}

void PaperComparison::add(const std::string& quantity, const std::string& paper_value,
                          const std::string& measured_value, const std::string& note) {
    rows_.push_back({quantity, paper_value, measured_value, note});
}

void PaperComparison::add(const std::string& quantity, const std::string& paper_value,
                          double measured_value, const std::string& note) {
    add(quantity, paper_value, format_double(measured_value, 4), note);
}

void PaperComparison::print(std::ostream& out) const {
    out << "--- " << title_ << ": paper vs measured ---\n";
    TextTable table({"quantity", "paper", "measured", "note"});
    for (const auto& row : rows_)
        table.add_row(row);
    table.print(out);
}

} // namespace xysig::report
