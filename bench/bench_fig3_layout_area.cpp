// Reproduces Fig. 3: the monitor layout — common-centroid split-by-four
// placement and the occupied area (paper: 53.54 um^2 core, 11.64 x 4.6 um,
// 116.1 um^2 including the output stage). Then benchmarks the placer.

#include <iostream>

#include <benchmark/benchmark.h>

#include "common/strings.h"
#include "common/table.h"
#include "layout/area.h"
#include "monitor/table1.h"
#include "report/figure.h"

namespace {

using namespace xysig;

void print_placement(std::ostream& out, const layout::Placement& p) {
    out << "common-centroid placement (device index per unit cell, M1..M8 -> "
           "0..7):\n";
    for (std::size_t r = 0; r < p.rows(); ++r) {
        out << "  ";
        for (std::size_t c = 0; c < p.cols(); ++c) {
            const int d = p.device_at(r, c);
            out << (d < 0 ? std::string("-") : std::to_string(d)) << ' ';
        }
        out << '\n';
    }
}

void print_reproduction(std::ostream& out) {
    out << "=== [fig3] Monitor layout: common-centroid placement + area ===\n";

    // The placement the area model sizes.
    const layout::Placement p =
        layout::common_centroid_place(8, layout::kUnitsPerDevice, layout::kGridRows);
    print_placement(out, p);

    TextTable props({"property", "value"});
    props.add_row({"devices", "8 (M1..M4 inputs, M5..M8 loads)"});
    props.add_row({"units per device", std::to_string(layout::kUnitsPerDevice) +
                                            " (paper: transistors split into four)"});
    props.add_row({"common centroid", p.is_common_centroid() ? "yes" : "NO"});
    props.add_row({"dispersion (cell pitches)", format_double(p.dispersion(), 4)});
    props.print(out);

    const auto cfg = monitor::table1_config(1);
    const layout::AreaReport core = layout::monitor_core_area(cfg);
    const layout::AreaReport total = layout::monitor_total_area(cfg);

    report::PaperComparison cmp("Fig. 3 layout");
    cmp.add("core area (um^2)", "53.54", core.area_um2(), "calibrated cell model");
    cmp.add("core width (um)", "11.64", core.width_um(), "");
    cmp.add("core height (um)", "4.6", core.height_um(), "");
    cmp.add("total area with output stage (um^2)", "116.1", total.area * 1e12, "");
    cmp.add("technology", "ST 65 nm CMOS", "65 nm-flavoured rule set",
            "stands in for the unpublished ST rules");
    cmp.print(out);
}

void BM_CommonCentroidPlace(benchmark::State& state) {
    const int devices = static_cast<int>(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(layout::common_centroid_place(devices, 4, 4));
}
BENCHMARK(BM_CommonCentroidPlace)->Arg(2)->Arg(8)->Arg(32);

void BM_CentroidVerification(benchmark::State& state) {
    const layout::Placement p = layout::common_centroid_place(8, 4, 4);
    for (auto _ : state)
        benchmark::DoNotOptimize(p.is_common_centroid());
}
BENCHMARK(BM_CentroidVerification);

void BM_AreaModel(benchmark::State& state) {
    const auto cfg = monitor::table1_config(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(layout::monitor_total_area(cfg));
}
BENCHMARK(BM_AreaModel);

} // namespace

int main(int argc, char** argv) {
    print_reproduction(std::cout);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
