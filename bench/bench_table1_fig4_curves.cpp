// Reproduces TABLE I + Fig. 4: the six monitor control curves, and the
// paper's Monte-Carlo validation (measured curves inside the predicted
// process+mismatch envelope). Then benchmarks boundary evaluation.

#include <cmath>
#include <iostream>

#include <benchmark/benchmark.h>

#include "common/math_util.h"
#include "common/strings.h"
#include "common/table.h"
#include "mc/monte_carlo.h"
#include "monitor/table1.h"
#include "report/figure.h"

namespace {

using namespace xysig;

void print_table1(std::ostream& out) {
    out << "=== TABLE I: input configuration of the six monitors ===\n";
    TextTable t({"curve", "W(M1) nm", "W(M2) nm", "W(M3) nm", "W(M4) nm", "V1",
                 "V2", "V3", "V4"});
    auto leg_str = [](const monitor::MonitorLeg& leg) {
        switch (leg.input) {
        case monitor::MonitorInput::x_axis:
            return std::string("X axis");
        case monitor::MonitorInput::y_axis:
            return std::string("Y axis");
        case monitor::MonitorInput::dc:
            return format_double(leg.dc_level, 3) + " V";
        }
        return std::string("?");
    };
    for (int row = 1; row <= 6; ++row) {
        const auto cfg = monitor::table1_config(row);
        t.add_row({std::to_string(row),
                   format_double(cfg.legs[0].width * 1e9, 4),
                   format_double(cfg.legs[1].width * 1e9, 4),
                   format_double(cfg.legs[2].width * 1e9, 4),
                   format_double(cfg.legs[3].width * 1e9, 4), leg_str(cfg.legs[0]),
                   leg_str(cfg.legs[1]), leg_str(cfg.legs[2]), leg_str(cfg.legs[3])});
    }
    t.print(out);
}

/// Curve of one Table I monitor on a grid (NaN where no crossing).
/// Curves 1 and 3-6 are functions y(x); curve 2 is near-vertical and is
/// probed as x(y) instead (the grid then parameterises y).
std::vector<double> curve_on_grid(const monitor::MonitorConfig& cfg,
                                  const std::vector<double>& grid,
                                  bool inverted = false) {
    const monitor::MosCurrentBoundary b(cfg);
    std::vector<double> out(grid.size(), std::nan(""));
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const double t = grid[i];
        if (!inverted) {
            const auto pts = trace_boundary(b, t, t + 1e-6, 2);
            if (!pts.empty())
                out[i] = pts.front().y;
        } else {
            // Root of h(., y = t) in x by scanning the transposed view.
            struct Swap final : monitor::Boundary {
                const monitor::Boundary* inner;
                double h(double x, double y) const override {
                    return inner->h(y, x);
                }
                std::unique_ptr<monitor::Boundary> clone() const override {
                    return std::make_unique<Swap>(*this);
                }
            };
            Swap sw;
            sw.inner = &b;
            const auto pts = trace_boundary(sw, t, t + 1e-6, 2);
            if (!pts.empty())
                out[i] = pts.front().y; // this is x of the original curve
        }
    }
    return out;
}

void print_reproduction(std::ostream& out) {
    print_table1(out);

    report::Figure fig("fig4", "Monitor control curves (Table I configurations)",
                       "X (V)", "Y (V)");
    const auto xs = linspace(0.0, 1.0, 81);
    for (int row = 1; row <= 6; ++row) {
        const bool inverted = (row == 2);
        const auto ys = curve_on_grid(monitor::table1_config(row), xs, inverted);
        report::Series s;
        s.name = "curve" + std::to_string(row);
        for (std::size_t i = 0; i < xs.size(); ++i) {
            if (!std::isnan(ys[i])) {
                // inverted: grid parameterises y and the value is x.
                s.xs.push_back(inverted ? ys[i] : xs[i]);
                s.ys.push_back(inverted ? xs[i] : ys[i]);
            }
        }
        if (!s.xs.empty())
            fig.add_series(std::move(s));
    }
    fig.print(out);

    // Monte-Carlo envelope (process + mismatch), nominal must lie inside --
    // the paper's validation of its measured curves, with roles swapped.
    // The parallel engine is bit-identical to the serial one at any thread
    // count, so moving off mc::monte_carlo_envelope only buys throughput —
    // which pays for the 3x larger sample count.
    constexpr int kMcSamples = 600;
    out << "=== Fig. 4 Monte-Carlo validation (N = " << kMcSamples
        << ", process + mismatch) ===\n";
    TextTable mc_table({"curve", "nominal inside 5-95% envelope",
                        "envelope width @ x=0.2 (mV)",
                        "envelope width @ x=0.05 (mV)"});
    for (int row = 1; row <= 6; ++row) {
        const bool inverted = (row == 2);
        const auto cfg = monitor::table1_config(row);
        // Probe away from the window edges, where a perturbed curve can
        // leave [0,1]^2 and the one-sided envelope artefacts appear.
        const auto env = mc::monte_carlo_envelope_parallel(
            kMcSamples, 42u + static_cast<std::uint64_t>(row), linspace(0.05, 0.95, 37),
            [&](Rng& rng, const std::vector<double>& grid) {
                return curve_on_grid(monitor::perturb_monitor(cfg, rng), grid,
                                     inverted);
            });
        const auto nominal = curve_on_grid(cfg, env.xs, inverted);
        auto width_at = [&](double x) -> std::string {
            for (std::size_t i = 0; i < env.xs.size(); ++i) {
                if (std::abs(env.xs[i] - x) < 1e-9) {
                    if (std::isnan(env.p95[i]) || std::isnan(env.p05[i]))
                        return "n/a";
                    return format_double((env.p95[i] - env.p05[i]) * 1e3, 3);
                }
            }
            return "n/a";
        };
        mc_table.add_row({std::to_string(row),
                          env.contains(nominal, 2e-3) ? "yes" : "NO",
                          width_at(0.2), width_at(0.05)});
    }
    mc_table.print(out);

    report::PaperComparison cmp("Table I / Fig. 4");
    cmp.add("curves 1-2", "segments of positive slope", "positive slope",
            "see fig4 series");
    cmp.add("curves 3-5", "segments of negative slope (arcs)", "negative slope",
            "DC level orders the arcs: 0.3 < 0.55 < 0.75");
    cmp.add("curve 6", "45-degree line, distorted at low voltages",
            "diagonal; MC envelope widens at low V",
            "sub-threshold operation dominates mismatch there");
    cmp.add("measured vs MC", "inside predicted MC range", "nominal inside 5-95%",
            "");
    cmp.print(out);
}

void BM_BoundaryEvaluate(benchmark::State& state) {
    const monitor::MosCurrentBoundary b(
        monitor::table1_config(static_cast<int>(state.range(0))));
    double x = 0.1, y = 0.9;
    for (auto _ : state) {
        benchmark::DoNotOptimize(b.h(x, y));
        x = (x < 0.9) ? x + 0.01 : 0.1;
        y = (y > 0.1) ? y - 0.01 : 0.9;
    }
}
BENCHMARK(BM_BoundaryEvaluate)->Arg(1)->Arg(3)->Arg(6);

void BM_TraceBoundary(benchmark::State& state) {
    const monitor::MosCurrentBoundary b(monitor::table1_config(3));
    for (auto _ : state)
        benchmark::DoNotOptimize(trace_boundary(b, 0.0, 1.0, 64));
}
BENCHMARK(BM_TraceBoundary);

} // namespace

int main(int argc, char** argv) {
    print_reproduction(std::cout);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
