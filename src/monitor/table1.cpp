#include "monitor/table1.h"

#include <cmath>

#include "common/contracts.h"
#include "common/statistics.h"

namespace xysig::monitor {

namespace {

MonitorLeg leg_axis(MonitorInput axis, double width_nm) {
    MonitorLeg l;
    l.input = axis;
    l.width = width_nm * 1e-9;
    return l;
}

MonitorLeg leg_dc(double level, double width_nm) {
    MonitorLeg l;
    l.input = MonitorInput::dc;
    l.dc_level = level;
    l.width = width_nm * 1e-9;
    return l;
}

} // namespace

MonitorConfig table1_config(int row) {
    XYSIG_EXPECTS(row >= 1 && row <= 6);
    MonitorConfig cfg;
    cfg.name = "table1-curve-" + std::to_string(row);
    using MI = MonitorInput;
    switch (row) {
    case 1:
        cfg.legs = {leg_axis(MI::y_axis, 3000), leg_dc(0.2, 600),
                    leg_axis(MI::x_axis, 600), leg_dc(0.6, 3000)};
        break;
    case 2:
        cfg.legs = {leg_dc(0.6, 3000), leg_axis(MI::y_axis, 600),
                    leg_dc(0.2, 600), leg_axis(MI::x_axis, 3000)};
        break;
    case 3:
        cfg.legs = {leg_axis(MI::y_axis, 1800), leg_axis(MI::x_axis, 1800),
                    leg_dc(0.55, 1800), leg_dc(0.55, 1800)};
        break;
    case 4:
        cfg.legs = {leg_axis(MI::y_axis, 1800), leg_axis(MI::x_axis, 1800),
                    leg_dc(0.3, 1800), leg_dc(0.3, 1800)};
        break;
    case 5:
        cfg.legs = {leg_axis(MI::y_axis, 1800), leg_axis(MI::x_axis, 1800),
                    leg_dc(0.75, 1800), leg_dc(0.75, 1800)};
        break;
    case 6:
        cfg.legs = {leg_axis(MI::y_axis, 1800), leg_dc(0.0, 1800),
                    leg_axis(MI::x_axis, 1800), leg_dc(0.0, 1800)};
        break;
    default:
        break; // unreachable (precondition)
    }
    return cfg;
}

std::vector<MonitorConfig> table1_configs() {
    std::vector<MonitorConfig> out;
    out.reserve(6);
    for (int row = 1; row <= 6; ++row)
        out.push_back(table1_config(row));
    return out;
}

MonitorBank build_table1_bank() {
    MonitorBank bank;
    for (auto& cfg : table1_configs())
        bank.add(std::make_unique<MosCurrentBoundary>(std::move(cfg)));
    return bank;
}

MonitorBank build_linear_approximation_bank() {
    MonitorBank bank;
    for (int row = 1; row <= 6; ++row) {
        const MosCurrentBoundary nonlinear(table1_config(row));
        const auto pts = trace_boundary(nonlinear, kPlaneLo, kPlaneHi, 64);
        XYSIG_ASSERT(pts.size() >= 2);
        std::vector<double> xs, ys;
        xs.reserve(pts.size());
        ys.reserve(pts.size());
        for (const auto& p : pts) {
            xs.push_back(p.x);
            ys.push_back(p.y);
        }
        // Fit y = m x + b when the curve is a function of x; if the curve is
        // near-vertical (x spread tiny), fit x = m' y + b' instead.
        const double x_spread = max_value(xs) - min_value(xs);
        const double y_spread = max_value(ys) - min_value(ys);
        if (x_spread >= 0.25 * y_spread) {
            const LineFit fit = fit_line(xs, ys);
            // y - m x - b = 0  ->  a = -m, b = 1, c = -intercept.
            bank.add(std::make_unique<LinearBoundary>(-fit.slope, 1.0, -fit.intercept));
        } else {
            const LineFit fit = fit_line(ys, xs);
            // x - m y - b = 0.
            bank.add(std::make_unique<LinearBoundary>(1.0, -fit.slope, -fit.intercept));
        }
    }
    return bank;
}

} // namespace xysig::monitor
