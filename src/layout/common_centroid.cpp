#include "layout/common_centroid.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/contracts.h"

namespace xysig::layout {

Placement::Placement(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), cells_(rows * cols, -1) {
    XYSIG_EXPECTS(rows >= 1 && cols >= 1);
}

int Placement::device_at(std::size_t r, std::size_t c) const {
    XYSIG_EXPECTS(r < rows_ && c < cols_);
    return cells_[r * cols_ + c];
}

void Placement::set_device(std::size_t r, std::size_t c, int device) {
    XYSIG_EXPECTS(r < rows_ && c < cols_);
    XYSIG_EXPECTS(device >= -1);
    cells_[r * cols_ + c] = device;
}

double Placement::centroid_error(int device) const {
    double sum_r = 0.0, sum_c = 0.0;
    std::size_t n = 0;
    for (std::size_t r = 0; r < rows_; ++r) {
        for (std::size_t c = 0; c < cols_; ++c) {
            if (cells_[r * cols_ + c] == device) {
                sum_r += static_cast<double>(r);
                sum_c += static_cast<double>(c);
                ++n;
            }
        }
    }
    XYSIG_EXPECTS(n > 0);
    const double centre_r = (static_cast<double>(rows_) - 1.0) / 2.0;
    const double centre_c = (static_cast<double>(cols_) - 1.0) / 2.0;
    const double dr = sum_r / static_cast<double>(n) - centre_r;
    const double dc = sum_c / static_cast<double>(n) - centre_c;
    return std::sqrt(dr * dr + dc * dc);
}

bool Placement::is_common_centroid() const {
    constexpr double tol = 1e-9;
    for (const int d : devices())
        if (centroid_error(d) > tol)
            return false;
    return true;
}

double Placement::dispersion() const {
    const double centre_r = (static_cast<double>(rows_) - 1.0) / 2.0;
    const double centre_c = (static_cast<double>(cols_) - 1.0) / 2.0;
    double total = 0.0;
    const auto devs = devices();
    XYSIG_EXPECTS(!devs.empty());
    for (const int d : devs) {
        double acc = 0.0;
        std::size_t n = 0;
        for (std::size_t r = 0; r < rows_; ++r) {
            for (std::size_t c = 0; c < cols_; ++c) {
                if (cells_[r * cols_ + c] == d) {
                    const double dr = static_cast<double>(r) - centre_r;
                    const double dc = static_cast<double>(c) - centre_c;
                    acc += dr * dr + dc * dc;
                    ++n;
                }
            }
        }
        total += std::sqrt(acc / static_cast<double>(n));
    }
    return total / static_cast<double>(devs.size());
}

std::vector<int> Placement::devices() const {
    std::set<int> found;
    for (const int c : cells_)
        if (c >= 0)
            found.insert(c);
    return {found.begin(), found.end()};
}

Placement common_centroid_place(int n_devices, int units_per_device,
                                std::size_t rows) {
    XYSIG_EXPECTS(n_devices >= 1);
    XYSIG_EXPECTS(units_per_device >= 2 && units_per_device % 2 == 0);
    XYSIG_EXPECTS(rows >= 1);

    const std::size_t total_units =
        static_cast<std::size_t>(n_devices) * static_cast<std::size_t>(units_per_device);
    std::size_t cols = (total_units + rows - 1) / rows;
    if ((rows * cols) % 2 != 0)
        ++cols; // need an even number of cells for symmetric pairing
    Placement p(rows, cols);

    // Cells are paired by central symmetry: cell k with cell N-1-k. Giving a
    // device both halves of a pair keeps its centroid at the array centre.
    // Pairs are dealt round-robin so units of one device spread across the
    // array (gradient averaging) instead of clumping.
    const std::size_t n_cells = rows * cols;
    const std::size_t n_pairs = n_cells / 2;
    const std::size_t pairs_per_device =
        static_cast<std::size_t>(units_per_device) / 2;

    std::size_t pair = 0;
    for (std::size_t round = 0; round < pairs_per_device; ++round) {
        for (int d = 0; d < n_devices; ++d) {
            XYSIG_ASSERT(pair < n_pairs);
            const std::size_t a = pair;
            const std::size_t b = n_cells - 1 - pair;
            p.set_device(a / cols, a % cols, d);
            p.set_device(b / cols, b % cols, d);
            ++pair;
        }
    }
    // Remaining pairs (if any) stay as symmetric dummies (-1).
    return p;
}

} // namespace xysig::layout
