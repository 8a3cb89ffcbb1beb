#ifndef XYSIG_COMMON_TABLE_H
#define XYSIG_COMMON_TABLE_H

/// \file table.h
/// Aligned plain-text tables for bench output — the "same rows the paper
/// reports" are printed through this.

#include <ostream>
#include <string>
#include <vector>

namespace xysig {

/// Collects rows of string cells and prints them column-aligned.
class TextTable {
public:
    explicit TextTable(std::vector<std::string> header);

    /// Adds a row; it must have exactly as many cells as the header.
    void add_row(std::vector<std::string> cells);

    /// Renders with a header underline and two-space column gaps.
    void print(std::ostream& out) const;

private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace xysig

#endif // XYSIG_COMMON_TABLE_H
