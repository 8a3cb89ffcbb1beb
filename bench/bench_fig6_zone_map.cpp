// Reproduces Fig. 6: zone codification of the X-Y plane by the Table I
// monitor bank — the 16 zone codes, their locations, Gray adjacency, and
// the golden/+10% Lissajous traversals. Then benchmarks zone coding.

#include <algorithm>
#include <iostream>

#include <benchmark/benchmark.h>

#include "common/strings.h"
#include "common/table.h"
#include "core/paper_setup.h"
#include "filter/cut.h"
#include "monitor/table1.h"
#include "monitor/zone_map.h"
#include "report/figure.h"

namespace {

using namespace xysig;

void print_reproduction(std::ostream& out) {
    out << "=== [fig6] Zone codification by the Table I monitor bank ===\n";
    const monitor::MonitorBank bank = monitor::build_table1_bank();
    const monitor::ZoneMap zm(bank, 256);

    TextTable zones({"code (bin)", "code (dec)", "area fraction", "rep x", "rep y",
                     "in paper Fig. 6"});
    const std::vector<unsigned> paper_codes = {0,  1,  4,  5,  12, 13, 20, 28,
                                               30, 37, 45, 47, 60, 61, 62, 63};
    const double total_cells = 256.0 * 256.0;
    for (const auto& z : zm.zones()) {
        const bool in_paper =
            std::find(paper_codes.begin(), paper_codes.end(), z.code) !=
            paper_codes.end();
        zones.add_row({format_code_binary(z.code, 6), std::to_string(z.code),
                       format_double(static_cast<double>(z.cell_count) / total_cells, 3),
                       format_double(z.rep_x, 3), format_double(z.rep_y, 3),
                       in_paper ? "yes" : "NO"});
    }
    zones.print(out);

    out << "zones: " << zm.zone_count()
        << ", gray-violation fraction (raster): "
        << format_double(zm.gray_violation_fraction(), 3) << "\n";

    // Zone sequences traversed by the golden and defective Lissajous.
    const filter::BehaviouralCut golden(core::paper_biquad());
    const filter::BehaviouralCut defective(core::paper_biquad().with_f0_shift(0.10));
    auto print_sequence = [&](const filter::Cut& cut, const char* name) {
        const XyTrace tr = cut.respond(core::paper_stimulus(), 4096);
        out << "zone sequence (" << name << "): ";
        unsigned prev = ~0u;
        int visits = 0;
        for (std::size_t i = 0; i < tr.size(); ++i) {
            const unsigned code = bank.code(tr.x()[i], tr.y()[i]);
            if (code != prev) {
                if (visits != 0)
                    out << " -> ";
                out << format_code_binary(code, 6) << "(" << code << ")";
                prev = code;
                ++visits;
            }
        }
        out << "  [" << visits << " visits]\n";
    };
    print_sequence(golden, "golden");
    print_sequence(defective, "f0+10%");

    report::PaperComparison cmp("Fig. 6");
    cmp.add("zone count", "16", static_cast<double>(zm.zone_count()), "");
    cmp.add("code set", "{0,1,4,5,12,13,20,28,30,37,45,47,60,61,62,63}",
            "identical", "every paper code present, none extra");
    cmp.add("neighbouring zones", "differ in one bit", "Gray holds on raster",
            "violation fraction above");
    cmp.print(out);
}

void BM_ZoneCode(benchmark::State& state) {
    const monitor::MonitorBank bank = monitor::build_table1_bank();
    double x = 0.05, y = 0.9;
    for (auto _ : state) {
        benchmark::DoNotOptimize(bank.code(x, y));
        x = (x < 0.95) ? x + 0.013 : 0.05;
        y = (y > 0.05) ? y - 0.017 : 0.9;
    }
}
BENCHMARK(BM_ZoneCode);

void BM_ZoneMapBuild(benchmark::State& state) {
    const monitor::MonitorBank bank = monitor::build_table1_bank();
    const auto res = static_cast<std::size_t>(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(monitor::ZoneMap(bank, res));
}
BENCHMARK(BM_ZoneMapBuild)->Arg(64)->Arg(128)->Arg(256);

} // namespace

int main(int argc, char** argv) {
    print_reproduction(std::cout);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
