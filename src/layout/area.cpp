#include "layout/area.h"

#include <algorithm>

namespace xysig::layout {

AreaReport monitor_core_area(const monitor::MonitorConfig& input_config) {
    // Eight devices: M1..M4 inputs, M5..M8 loads, split into unit fingers.
    double max_unit_w = 0.0;
    for (const auto& leg : input_config.legs)
        max_unit_w = std::max(max_unit_w, leg.width / kUnitsPerDevice);
    max_unit_w = std::max(max_unit_w, kLoadWidth / kUnitsPerDevice);

    const Placement placement = common_centroid_place(8, kUnitsPerDevice, kGridRows);

    const double cell_w = max_unit_w + kCellOverheadX;
    const double cell_h = input_config.device.l + kCellOverheadY;

    AreaReport r;
    r.width = static_cast<double>(placement.cols()) * cell_w + 2.0 * kEdgeMarginX;
    r.height = static_cast<double>(placement.rows()) * cell_h + 2.0 * kEdgeMarginY;
    r.area = r.width * r.height;
    return r;
}

AreaReport monitor_total_area(const monitor::MonitorConfig& input_config) {
    AreaReport core = monitor_core_area(input_config);
    AreaReport total = core;
    total.area += kOutputStageArea;
    // Report the footprint as the same height with the width extended by the
    // output stage (a simple but consistent floorplan assumption).
    total.width += kOutputStageArea / core.height;
    return total;
}

} // namespace xysig::layout
