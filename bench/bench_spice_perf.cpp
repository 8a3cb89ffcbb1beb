// Engine micro-benchmarks: the circuit-simulation substrate (DC, transient,
// AC, MOSFET evaluation) and the comparator netlist, plus the SPICE
// fault-universe scaling report — batch NDF over a bridging/open universe,
// serial vs N worker threads, gated on bit-identity (nonzero exit when any
// parallel result diverges, so CI can rely on the exit code).

#include <bit>
#include <cstdint>
#include <iostream>
#include <limits>
#include <memory>
#include <thread>

#include <benchmark/benchmark.h>

#include "capture/fault_injection.h"
#include "common/strings.h"
#include "common/table.h"
#include "core/batch_ndf.h"
#include "core/paper_setup.h"
#include "filter/tow_thomas.h"
#include "monitor/comparator_netlist.h"
#include "monitor/table1.h"
#include "spice/ac.h"
#include "spice/dc.h"
#include "spice/elements.h"
#include "spice/transient.h"
#include "support/timing.h"

namespace {

using namespace xysig;

void BM_MosEvaluate(benchmark::State& state) {
    spice::MosParams p;
    p.w = 1.8e-6;
    p.l = 180e-9;
    double vgs = 0.1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(spice::mos_evaluate(p, vgs, 0.6));
        vgs = (vgs < 1.1) ? vgs + 0.001 : 0.1;
    }
}
BENCHMARK(BM_MosEvaluate);

void BM_DcOperatingPoint_Comparator(benchmark::State& state) {
    monitor::ComparatorCircuit ckt =
        monitor::build_comparator(monitor::table1_config(3));
    for (auto _ : state)
        benchmark::DoNotOptimize(monitor::comparator_differential(ckt, 0.3, 0.7));
}
BENCHMARK(BM_DcOperatingPoint_Comparator)->Unit(benchmark::kMicrosecond);

void BM_TransientTowThomas(benchmark::State& state) {
    const auto periods = static_cast<int>(state.range(0));
    for (auto _ : state) {
        filter::TowThomasCircuit ckt = filter::build_tow_thomas(
            filter::TowThomasDesign::from_biquad(core::paper_biquad().design(), 10e3));
        ckt.netlist.get<spice::VoltageSource>("Vin").set_waveform(
            core::paper_stimulus());
        spice::TransientOptions opts;
        opts.t_stop = periods * 200e-6;
        opts.dt = 200e-6 / 512;
        benchmark::DoNotOptimize(spice::run_transient(ckt.netlist, opts));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            periods * 512);
}
BENCHMARK(BM_TransientTowThomas)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_AcSweepTowThomas(benchmark::State& state) {
    filter::TowThomasCircuit ckt = filter::build_tow_thomas(
        filter::TowThomasDesign::from_biquad(core::paper_biquad().design(), 10e3));
    ckt.netlist.get<spice::VoltageSource>("Vin").set_ac(1.0);
    spice::AcOptions opts;
    opts.f_start = 100.0;
    opts.f_stop = 1e6;
    opts.points_per_decade = 20;
    for (auto _ : state)
        benchmark::DoNotOptimize(spice::run_ac(ckt.netlist, opts));
}
BENCHMARK(BM_AcSweepTowThomas)->Unit(benchmark::kMillisecond);

void BM_NewtonDcLadder(benchmark::State& state) {
    // A deliberately awkward bias point to exercise the convergence ladder.
    monitor::ComparatorCircuit ckt =
        monitor::build_comparator(monitor::table1_config(6));
    for (auto _ : state)
        benchmark::DoNotOptimize(monitor::comparator_differential(ckt, 0.5, 0.5));
}
BENCHMARK(BM_NewtonDcLadder)->Unit(benchmark::kMicrosecond);

// Batch NDF over the Tow-Thomas bridging/open fault universe: serial
// reference vs the batch engine at 1/2/4/8 threads. Returns false when any
// parallel result is not bit-identical to the serial one.
[[nodiscard]] bool print_spice_scaling_report(std::ostream& out) {
    using namespace xysig;

    out << "=== [spice scaling] batch NDF over a bridging/open fault universe "
           "===\n";
    out << "hardware_concurrency: " << std::thread::hardware_concurrency()
        << " (speedup is bounded by physical cores; determinism is not)\n";

    const filter::TowThomasCircuit nominal = filter::build_tow_thomas(
        filter::TowThomasDesign::from_biquad(core::paper_biquad().design(), 10e3));

    core::PipelineOptions popts;
    popts.samples_per_period = 1024;
    core::SignaturePipeline pipe(monitor::build_table1_bank(),
                                 core::paper_stimulus(), popts);
    const core::SpiceObservation obs{nominal.input_source, nominal.input_node,
                                     nominal.lp_node, /*settle_periods=*/4};
    pipe.set_golden(filter::SpiceCut(
        std::make_unique<spice::Netlist>(nominal.netlist.clone()),
        obs.input_source, obs.x_node, obs.y_node, obs.settle_periods));

    capture::FaultUniverseOptions fopts;
    auto faults = capture::enumerate_bridging_faults(nominal.netlist, fopts);
    const auto opens = capture::enumerate_open_faults(nominal.netlist, fopts);
    faults.insert(faults.end(), opens.begin(), opens.end());
    const auto universe = core::BatchNdfEvaluator::build_fault_universe(
        nominal.netlist, faults, obs);
    out << "universe: " << faults.size() << " faults ("
        << faults.size() - opens.size() << " bridging, " << opens.size()
        << " open) over '" << nominal.netlist.devices().size()
        << "-device Tow-Thomas'\n";

    // Serial reference: one cut at a time through the scratch path, with the
    // same NaN-on-non-convergence policy the batch engine uses (catastrophic
    // universes legitimately contain unsolvable members).
    std::vector<double> serial(universe.size());
    const double t_serial = seconds_of([&] {
        core::NdfScratch scratch;
        for (std::size_t i = 0; i < universe.size(); ++i) {
            try {
                serial[i] = pipe.ndf_of(*universe[i], scratch);
            } catch (const NumericError&) {
                // Same constant as the batch engine's policy: the identity
                // gate compares bit patterns, so the payloads must match.
                serial[i] = std::numeric_limits<double>::quiet_NaN();
            }
        }
    });

    // Bit-pattern identity: NaNs must match too (operator== can't see that).
    const auto same_bits = [](const std::vector<double>& a,
                              const std::vector<double>& b) {
        if (a.size() != b.size())
            return false;
        for (std::size_t i = 0; i < a.size(); ++i)
            if (std::bit_cast<std::uint64_t>(a[i]) !=
                std::bit_cast<std::uint64_t>(b[i]))
                return false;
        return true;
    };

    bool all_identical = true;
    TextTable t({"workload", "threads", "time (s)", "faults/s", "speedup",
                 "bit-identical"});
    t.add_row({"SPICE fault NDF", "serial", format_double(t_serial, 4),
               format_double(static_cast<double>(universe.size()) / t_serial, 1),
               "1.00", "-"});
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
        const core::BatchNdfEvaluator batch(pipe, {.threads = threads});
        std::vector<double> ndfs;
        const double dt = seconds_of([&] { ndfs = batch.evaluate(universe); });
        const bool identical = same_bits(ndfs, serial);
        all_identical = all_identical && identical;
        t.add_row({"SPICE fault NDF", std::to_string(threads),
                   format_double(dt, 4),
                   format_double(static_cast<double>(universe.size()) / dt, 1),
                   format_double(t_serial / dt, 2),
                   identical ? "yes" : "NO (BUG)"});
    }
    t.print(out);
    if (!all_identical)
        out << "ERROR: parallel SPICE NDFs diverged from serial (determinism "
               "bug)\n";
    return all_identical;
}

} // namespace

int main(int argc, char** argv) {
    const bool identical = print_spice_scaling_report(std::cout);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return identical ? 0 : 1;
}
