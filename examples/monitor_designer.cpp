// Monitor design exploration: how a test engineer would use the library to
// place a new nonlinear zone boundary.
//
// Workflow: pick input assignment + widths + bias -> trace the resulting
// control curve -> check it against the transistor-level comparator ->
// estimate manufacturing robustness (Monte-Carlo boundary displacement) and
// silicon cost (common-centroid layout area).

#include <cmath>
#include <iostream>

#include "common/ascii_plot.h"
#include "common/statistics.h"
#include "common/strings.h"
#include "common/table.h"
#include "layout/area.h"
#include "mc/monte_carlo.h"
#include "monitor/comparator_netlist.h"
#include "monitor/table1.h"

int main() {
    using namespace xysig;
    using monitor::MonitorInput;

    // A custom monitor: nonlinear arc via X+Y addition against a 0.65 V
    // reference, slightly asymmetric widths to tilt the arc.
    monitor::MonitorConfig cfg;
    cfg.name = "custom-arc";
    cfg.vds_eval = 0.6;
    cfg.legs[0] = {MonitorInput::y_axis, 0.0, 2.2e-6, 0.0, 1.0};
    cfg.legs[1] = {MonitorInput::x_axis, 0.0, 1.5e-6, 0.0, 1.0};
    cfg.legs[2] = {MonitorInput::dc, 0.65, 1.8e-6, 0.0, 1.0};
    cfg.legs[3] = {MonitorInput::dc, 0.65, 1.8e-6, 0.0, 1.0};

    const monitor::MosCurrentBoundary boundary(cfg);

    // 1. Trace and plot the control curve.
    const auto pts = trace_boundary(boundary, 0.0, 1.0, 200);
    AsciiCanvas canvas(0.0, 1.0, 0.0, 1.0, 72, 28);
    for (const auto& p : pts)
        canvas.point(p.x, p.y, '*');
    canvas.print(std::cout, "control curve of '" + cfg.name + "'");

    // 2. Cross-check three points against the transistor-level comparator.
    monitor::ComparatorCircuit ckt = monitor::build_comparator(cfg);
    TextTable check({"point", "closed-form side", "netlist decision", "agree"});
    for (const auto& [x, y] : {std::pair{0.2, 0.2}, std::pair{0.8, 0.8},
                               std::pair{0.9, 0.1}}) {
        const bool cf = boundary.current_difference(x, y) > 0.0;
        const bool nl = monitor::comparator_decision(ckt, x, y);
        check.add_row({"(" + format_double(x, 2) + "," + format_double(y, 2) + ")",
                       cf ? "1" : "0", nl ? "1" : "0", cf == nl ? "yes" : "NO"});
    }
    check.print(std::cout);

    // 3. Monte-Carlo robustness: spread of the curve's y-intercept at x=0.2.
    // The parallel engine forks all per-sample RNG streams up front, so the
    // samples are bit-identical to the serial run_monte_carlo(300, 7, fn)
    // this example used before, at any worker count.
    const auto samples = mc::run_monte_carlo_parallel(300, 7, [&](Rng& rng) {
        const auto perturbed = monitor::perturb_monitor(cfg, rng);
        const monitor::MosCurrentBoundary b(perturbed);
        const auto roots = trace_boundary(b, 0.2, 0.21, 2);
        return roots.empty() ? std::nan("") : roots.front().y;
    });
    std::vector<double> valid;
    for (double s : samples)
        if (!std::isnan(s))
            valid.push_back(s);
    std::cout << "\nboundary y(0.2) under process+mismatch (N=300): mean="
              << format_double(mean(valid), 4)
              << " V, sigma=" << format_double(stddev(valid), 4) << " V\n";

    // 4. Silicon cost.
    const auto area = layout::monitor_total_area(cfg);
    std::cout << "estimated monitor area: "
              << format_double(area.area * 1e12, 4) << " um^2 (core + output "
              << "stage; paper's fabricated monitor: 116.1 um^2)\n";
    return 0;
}
