#include "common/table.h"

#include <algorithm>

#include "common/contracts.h"

namespace xysig {

TextTable::TextTable(std::vector<std::string> header) : header_(std::move(header)) {
    XYSIG_EXPECTS(!header_.empty());
}

void TextTable::add_row(std::vector<std::string> cells) {
    XYSIG_EXPECTS(cells.size() == header_.size());
    rows_.push_back(std::move(cells));
}

void TextTable::print(std::ostream& out) const {
    std::vector<std::size_t> widths(header_.size());
    for (std::size_t c = 0; c < header_.size(); ++c)
        widths[c] = header_[c].size();
    for (const auto& row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto print_row = [&](const std::vector<std::string>& row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            out << row[c];
            if (c + 1 < row.size())
                out << std::string(widths[c] - row[c].size() + 2, ' ');
        }
        out << '\n';
    };

    print_row(header_);
    std::size_t total = 0;
    for (std::size_t c = 0; c < widths.size(); ++c)
        total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
    out << std::string(total, '-') << '\n';
    for (const auto& row : rows_)
        print_row(row);
}

} // namespace xysig
