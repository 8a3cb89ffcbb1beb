// Engine micro-benchmarks: the circuit-simulation substrate (DC, transient,
// AC, MOSFET evaluation) and the comparator netlist, plus the SPICE
// fault-universe scaling report — batch NDF over a bridging/open universe,
// serial vs N worker threads, gated on bit-identity (nonzero exit when any
// parallel result diverges, so CI can rely on the exit code) — and the
// nominal member's solver counts (Newton iterations, LU factorisations).
// Before the scaling rows a spin probe measures how much parallel capacity
// the host has at that moment: on a shared host the N-thread rows scale
// only as far as that capacity allows.
//
// Flags: --json=PATH (the report's rows and counts, machine-readable;
// default bench_spice_perf.json); every other flag goes to google-benchmark.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

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
#include "support/server_helpers.h"
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
        filter::TowThomasCircuit ckt = core::paper_tow_thomas();
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
    filter::TowThomasCircuit ckt = core::paper_tow_thomas();
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

/// The host's parallel capacity, measured just before the scaling rows: one
/// fixed arithmetic spin on one thread, then the same spin on each of
/// `threads` threads at once. Every thread does the same work, so on
/// `threads` free cores the two times match and capacity =
/// threads * one_thread_s / n_threads_s reads `threads`; cores taken by
/// other work read as less. No row's time includes the probe.
struct SpinProbe {
    unsigned threads = 1;
    double one_thread_s = 0.0;
    double n_threads_s = 0.0;
    double capacity = 0.0;
};

/// A dependent multiply-add chain of 5e7 steps (no reassociation without
/// fast-math, so nothing to vectorise): about a tenth of a second on one
/// core.
double spin() {
    double x = 1.0;
    benchmark::DoNotOptimize(x); // a run-time start: nothing to fold
    for (int i = 0; i < 50'000'000; ++i)
        x = x * 1.0000001 + 1e-9;
    return x;
}

SpinProbe probe_parallel_capacity(unsigned threads) {
    SpinProbe probe;
    probe.threads = threads;
    probe.one_thread_s = seconds_of([] { benchmark::DoNotOptimize(spin()); });
    probe.n_threads_s = seconds_of([threads] {
        std::vector<std::thread> spinners;
        for (unsigned t = 0; t < threads; ++t)
            spinners.emplace_back([] { benchmark::DoNotOptimize(spin()); });
        for (std::thread& s : spinners)
            s.join();
    });
    probe.capacity = threads * probe.one_thread_s / probe.n_threads_s;
    return probe;
}

/// One row of the scaling report: the serial reference, or the batch
/// engine at `threads` workers.
struct ScalingRow {
    bool serial = false;
    unsigned threads = 1;
    double seconds = 0.0;
    double faults_per_s = 0.0;
    double speedup = 1.0;
    bool bit_identical = true;
};

struct ScalingReport {
    std::size_t samples_per_period = 0;
    int settle_periods = 0;
    std::size_t faults = 0;
    /// The nominal member's transient at the report's settings.
    std::size_t nominal_steps = 0;
    std::size_t nominal_newton_iterations = 0;
    std::size_t nominal_lu_factorisations = 0;
    SpinProbe spin;
    std::vector<ScalingRow> rows;
    bool all_identical = true;
};

void write_json(const std::string& path, const ScalingReport& report) {
    std::ofstream out(path);
    if (!out) {
        std::cerr << "warning: cannot write " << path << "\n";
        return;
    }
    out << "{\n";
    out << "  \"bench\": \"spice_perf\",\n";
    out << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
        << ",\n";
    out << "  \"samples_per_period\": " << report.samples_per_period << ",\n";
    out << "  \"settle_periods\": " << report.settle_periods << ",\n";
    out << "  \"faults\": " << report.faults << ",\n";
    out << "  \"nominal\": {\"steps\": " << report.nominal_steps
        << ", \"newton_iterations\": " << report.nominal_newton_iterations
        << ", \"lu_factorisations\": " << report.nominal_lu_factorisations
        << "},\n";
    out << "  \"spin_probe\": {\"threads\": " << report.spin.threads
        << ", \"one_thread_s\": " << format_double(report.spin.one_thread_s, 6)
        << ", \"n_threads_s\": " << format_double(report.spin.n_threads_s, 6)
        << ", \"capacity\": " << format_double(report.spin.capacity, 4) << "},\n";
    out << "  \"all_bit_identical\": " << (report.all_identical ? "true" : "false")
        << ",\n";
    out << "  \"rows\": [\n";
    for (std::size_t i = 0; i < report.rows.size(); ++i) {
        const ScalingRow& r = report.rows[i];
        out << "    {\"runner\": \"" << (r.serial ? "serial" : "batch")
            << "\", \"threads\": " << r.threads
            << ", \"seconds\": " << format_double(r.seconds, 6)
            << ", \"faults_per_s\": " << format_double(r.faults_per_s, 6)
            << ", \"speedup\": " << format_double(r.speedup, 4)
            << ", \"bit_identical\": " << (r.bit_identical ? "true" : "false")
            << "}" << (i + 1 < report.rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
}

// Batch NDF over the Tow-Thomas bridging/open fault universe: serial
// reference vs the batch engine at 1/2/4/8 threads. all_identical is false
// when any parallel result is not bit-identical to the serial one.
[[nodiscard]] ScalingReport print_spice_scaling_report(std::ostream& out) {
    using namespace xysig;

    out << "=== [spice scaling] batch NDF over a bridging/open fault universe "
           "===\n";
    out << "hardware_concurrency: " << std::thread::hardware_concurrency()
        << " (speedup is bounded by physical cores; determinism is not)\n";

    const filter::TowThomasCircuit nominal = core::paper_tow_thomas();

    ScalingReport report;
    core::SignaturePipeline pipe = server::make_pipeline({.samples_per_period = 1024});
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
    report.samples_per_period = pipe.options().samples_per_period;
    report.settle_periods = obs.settle_periods;
    report.faults = faults.size();

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

    // The capacity the rows below can use; its "speedup" is
    // threads * t1 / tN, what a perfectly parallel workload would reach.
    report.spin = probe_parallel_capacity(std::max(1u, std::thread::hardware_concurrency()));
    const auto members = static_cast<double>(universe.size());
    TextTable t({"workload", "threads", "time (s)", "faults/s", "speedup",
                 "bit-identical"});
    t.add_row({"spin probe", "1", format_double(report.spin.one_thread_s, 4), "-",
               "1.00", "-"});
    t.add_row({"spin probe", std::to_string(report.spin.threads),
               format_double(report.spin.n_threads_s, 4), "-",
               format_double(report.spin.capacity, 2), "-"});
    t.add_row({"SPICE fault NDF", "serial", format_double(t_serial, 4),
               format_double(members / t_serial, 1), "1.00", "-"});
    report.rows.push_back({.serial = true,
                           .threads = 1,
                           .seconds = t_serial,
                           .faults_per_s = members / t_serial});
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
        const core::BatchNdfEvaluator batch(pipe, {.threads = threads});
        std::vector<double> ndfs;
        const double dt = seconds_of([&] { ndfs = batch.evaluate(universe); });
        // Bit-pattern identity: NaNs must match too (operator== can't see that).
        const bool identical = server::same_bits(ndfs, serial);
        report.all_identical = report.all_identical && identical;
        t.add_row({"SPICE fault NDF", std::to_string(threads),
                   format_double(dt, 4), format_double(members / dt, 1),
                   format_double(t_serial / dt, 2),
                   identical ? "yes" : "NO (BUG)"});
        report.rows.push_back({.threads = threads,
                               .seconds = dt,
                               .faults_per_s = members / dt,
                               .speedup = t_serial / dt,
                               .bit_identical = identical});
    }
    t.print(out);
    out << "parallel capacity (spin probe): " << format_double(report.spin.capacity, 2)
        << " of " << report.spin.threads << " threads\n";

    // The nominal member's solver work: one transient over the same window
    // SpiceCut runs (settle periods plus the observed one), after the timed
    // rows so that it warms nothing they time.
    {
        spice::Netlist member = nominal.netlist.clone();
        member.get<spice::VoltageSource>(obs.input_source)
            .set_waveform(core::paper_stimulus());
        const double period = core::paper_stimulus().period();
        spice::TransientOptions opts;
        opts.t_stop = (obs.settle_periods + 1) * period;
        opts.dt = period / static_cast<double>(pipe.options().samples_per_period);
        const spice::TransientResult run = spice::run_transient(member, opts);
        report.nominal_steps = run.step_count() - 1;
        report.nominal_newton_iterations = run.total_newton_iterations;
        report.nominal_lu_factorisations = run.lu_factorisations;
        out << "nominal member: " << report.nominal_steps << " steps, "
            << report.nominal_newton_iterations << " Newton iterations, "
            << report.nominal_lu_factorisations << " LU factorisations\n";
    }

    if (!report.all_identical)
        out << "ERROR: parallel SPICE NDFs diverged from serial (determinism "
               "bug)\n";
    return report;
}

} // namespace

int main(int argc, char** argv) {
    std::string json_path = "bench_spice_perf.json";
    std::vector<char*> bench_args{argv[0]};
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--json=", 0) == 0)
            json_path = arg.substr(7);
        else
            bench_args.push_back(argv[i]);
    }
    const ScalingReport report = print_spice_scaling_report(std::cout);
    write_json(json_path, report);
    std::cout << "json: " << json_path << "\n";
    int bench_argc = static_cast<int>(bench_args.size());
    benchmark::Initialize(&bench_argc, bench_args.data());
    benchmark::RunSpecifiedBenchmarks();
    return report.all_identical ? 0 : 1;
}
