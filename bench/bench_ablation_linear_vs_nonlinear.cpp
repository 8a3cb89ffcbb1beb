// Ablation: the paper motivates nonlinear (current-comparison) boundaries
// as a simplification over classic straight-line X-Y zoning ([12],[13]).
// This bench compares the two banks at equal monitor count: NDF sensitivity
// on the Fig. 8 sweep and a hardware-cost tally. Then benchmarks both
// boundary evaluations head to head.

#include <iostream>

#include <benchmark/benchmark.h>

#include "common/strings.h"
#include "common/table.h"
#include "core/paper_setup.h"
#include "core/sweep.h"
#include "monitor/table1.h"
#include "monitor/zone_map.h"
#include "report/figure.h"

namespace {

using namespace xysig;

void print_reproduction(std::ostream& out) {
    out << "=== [ablationA] Straight-line zoning baseline vs nonlinear "
           "monitors ===\n";

    std::vector<double> devs;
    for (int d = -20; d <= 20; d += 2)
        devs.push_back(d);

    report::Figure fig("ablationA", "NDF vs % defect: nonlinear vs linear bank",
                       "% of defect", "NDF");
    core::SweepShape shape_nl, shape_lin;
    std::size_t zones_nl = 0, zones_lin = 0;
    {
        core::PipelineOptions opts;
        opts.samples_per_period = 4096;
        core::SignaturePipeline pipe(monitor::build_table1_bank(),
                                     core::paper_stimulus(), opts);
        const auto sweep = core::deviation_sweep(pipe, core::paper_biquad(), devs);
        shape_nl = core::analyse_sweep(sweep);
        report::Series s;
        s.name = "nonlinear (paper)";
        for (const auto& p : sweep) {
            s.xs.push_back(p.deviation_percent);
            s.ys.push_back(p.ndf_value);
        }
        fig.add_series(std::move(s));
        zones_nl = monitor::ZoneMap(pipe.bank(), 128).zone_count();
    }
    {
        core::PipelineOptions opts;
        opts.samples_per_period = 4096;
        core::SignaturePipeline pipe(monitor::build_linear_approximation_bank(),
                                     core::paper_stimulus(), opts);
        const auto sweep = core::deviation_sweep(pipe, core::paper_biquad(), devs);
        shape_lin = core::analyse_sweep(sweep);
        report::Series s;
        s.name = "linear baseline";
        for (const auto& p : sweep) {
            s.xs.push_back(p.deviation_percent);
            s.ys.push_back(p.ndf_value);
        }
        fig.add_series(std::move(s));
        zones_lin = monitor::ZoneMap(pipe.bank(), 128).zone_count();
    }
    fig.print(out);

    TextTable t({"metric", "nonlinear (paper)", "linear baseline"});
    t.add_row({"NDF slope per % deviation", format_double(shape_nl.slope_per_percent, 3),
               format_double(shape_lin.slope_per_percent, 3)});
    t.add_row({"sweep linearity r^2", format_double(shape_nl.r_squared, 3),
               format_double(shape_lin.r_squared, 3)});
    t.add_row({"zones in unit window", std::to_string(zones_nl),
               std::to_string(zones_lin)});
    t.add_row({"monitor hardware", "8 MOS transistors (current comparison)",
               "weighted adder (resistors/opamp) + voltage comparator"});
    t.add_row({"extra analog precision parts", "none (ratioed widths)",
               "matched resistor string per line"});
    t.print(out);

    report::PaperComparison cmp("Linear vs nonlinear zoning (ablation)");
    cmp.add("sensitivity", "comparable detection capability expected",
            "similar NDF slope", "both detect the Fig. 8 deviations");
    cmp.add("monitor size", "\"significant reduction in monitor size\"",
            "8T core vs adder+comparator",
            "the paper's 53.54 um^2 core has no passive network");
    cmp.print(out);
}

void BM_NonlinearBoundary(benchmark::State& state) {
    const monitor::MonitorBank bank = monitor::build_table1_bank();
    double x = 0.1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(bank.code(x, 1.0 - x));
        x = (x < 0.9) ? x + 0.01 : 0.1;
    }
}
BENCHMARK(BM_NonlinearBoundary);

void BM_LinearBoundary(benchmark::State& state) {
    const monitor::MonitorBank bank = monitor::build_linear_approximation_bank();
    double x = 0.1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(bank.code(x, 1.0 - x));
        x = (x < 0.9) ? x + 0.01 : 0.1;
    }
}
BENCHMARK(BM_LinearBoundary);

} // namespace

int main(int argc, char** argv) {
    print_reproduction(std::cout);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
