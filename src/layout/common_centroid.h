#ifndef XYSIG_LAYOUT_COMMON_CENTROID_H
#define XYSIG_LAYOUT_COMMON_CENTROID_H

/// \file common_centroid.h
/// Two-dimensional common-centroid placement of split transistors (paper
/// Fig. 3 / ref [17]): each monitor device is split into equal units placed
/// so that every device's unit centroid coincides with the array centre,
/// cancelling linear process gradients.

#include <cstddef>
#include <vector>

namespace xysig::layout {

/// A rows x cols array of unit transistors; cells hold the device index
/// (0-based) or -1 for a dummy cell.
class Placement {
public:
    Placement(std::size_t rows, std::size_t cols);

    [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
    [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
    [[nodiscard]] int device_at(std::size_t r, std::size_t c) const;
    void set_device(std::size_t r, std::size_t c, int device);

    /// Distance between a device's unit centroid and the array centre, in
    /// cell pitches. Exactly 0 for a common-centroid placement.
    [[nodiscard]] double centroid_error(int device) const;

    /// True when every placed device has centroid_error below 1e-9 cell
    /// pitches (rounding residue of an exactly centred placement).
    [[nodiscard]] bool is_common_centroid() const;

    /// Dispersion metric: mean RMS distance of a device's units from the
    /// array centre (lower = tighter interdigitation), averaged over devices.
    [[nodiscard]] double dispersion() const;

    /// Device indices present (excluding dummies).
    [[nodiscard]] std::vector<int> devices() const;

private:
    std::size_t rows_;
    std::size_t cols_;
    std::vector<int> cells_;
};

/// Places n_devices, each split into units_per_device units, on a grid with
/// the given number of rows (columns are derived). Units are assigned in
/// centrally-symmetric pairs, which guarantees the common-centroid property
/// by construction. Requires units_per_device even and the grid to have an
/// even number of cells at least n_devices * units_per_device; spare cells
/// become symmetric dummies.
[[nodiscard]] Placement common_centroid_place(int n_devices, int units_per_device,
                                              std::size_t rows);

} // namespace xysig::layout

#endif // XYSIG_LAYOUT_COMMON_CENTROID_H
