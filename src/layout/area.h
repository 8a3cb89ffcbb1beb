#ifndef XYSIG_LAYOUT_AREA_H
#define XYSIG_LAYOUT_AREA_H

/// \file area.h
/// Area model of the monitor layout (paper Fig. 3): the fabricated monitor
/// occupies 53.54 um^2 (11.64 um x 4.6 um) with the input/load devices
/// split by four in a common-centroid array, and 116.1 um^2 including the
/// high-gain output stage.
///
/// The model is a calibrated cell-grid estimate: unit transistors become
/// cells of (unit width + fixed overhead) x (L + fixed overhead), arranged
/// on the common-centroid grid, plus edge margins. Overheads bundle
/// contacts, diffusion extensions, poly pitch and routing. The paper's
/// ST 65 nm rules are not public; the 65 nm-flavoured rule set below
/// stands in for them, its five values fitted so that Table I row 1 with
/// 2 um loads gives Fig. 3's 53.54 um^2 core (11.64 x 4.6 um) and
/// 116.1 um^2 with the output stage.

#include "layout/common_centroid.h"
#include "monitor/mos_boundary.h"

namespace xysig::layout {

// Calibrated 65 nm-flavoured layout rules (meters).
inline constexpr double kCellOverheadX = 0.615e-6; ///< contacts + diffusion + spacing per cell
inline constexpr double kCellOverheadY = 0.82e-6;  ///< poly extension + contact row + well space
inline constexpr double kEdgeMarginX = 0.36e-6;    ///< guard/ring margin left+right (each)
inline constexpr double kEdgeMarginY = 0.30e-6;    ///< guard/ring margin top+bottom (each)
inline constexpr double kOutputStageArea = 62.56e-12; ///< high-gain stage (paper: total-core)

/// W of the pMOS loads (M5..M8).
inline constexpr double kLoadWidth = 2e-6;
/// Units each of the eight devices is split into, and rows of the
/// common-centroid grid they are placed on (Fig. 3: split by four).
inline constexpr int kUnitsPerDevice = 4;
inline constexpr std::size_t kGridRows = 4;

/// One rectangular block estimate.
struct AreaReport {
    double width = 0.0;  ///< m
    double height = 0.0; ///< m
    double area = 0.0;   ///< m^2

    [[nodiscard]] double area_um2() const noexcept { return area * 1e12; }
    [[nodiscard]] double width_um() const noexcept { return width * 1e6; }
    [[nodiscard]] double height_um() const noexcept { return height * 1e6; }
};

/// Area of the comparator core: the four input devices (widths from
/// `input_config`, Table I) plus the four kLoadWidth load devices of the
/// Fig. 2 monitor, each split into kUnitsPerDevice units on a
/// common-centroid grid with kGridRows rows.
[[nodiscard]] AreaReport monitor_core_area(const monitor::MonitorConfig& input_config);

/// Core + output stage.
[[nodiscard]] AreaReport monitor_total_area(const monitor::MonitorConfig& input_config);

} // namespace xysig::layout

#endif // XYSIG_LAYOUT_AREA_H
