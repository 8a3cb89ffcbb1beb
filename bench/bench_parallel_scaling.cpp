// Serial-vs-parallel scaling of the batch evaluation engine: batch NDF of a
// fault universe and the Monte-Carlo envelope, at 1/2/4/8 worker threads.
// Prints a throughput table (with speedup over serial) after verifying that
// every parallel result is bit-identical to the serial one, then runs the
// google-benchmark timers. Speedup tracks physical cores: on a single-core
// CI box the engine degrades gracefully to ~1x, never below.

#include <iostream>
#include <thread>

#include <benchmark/benchmark.h>

#include "common/strings.h"
#include "common/table.h"
#include "core/batch_ndf.h"
#include "core/paper_setup.h"
#include "mc/monte_carlo.h"
#include "support/server_helpers.h"
#include "support/timing.h"

namespace {

using namespace xysig;

constexpr int kUniverseSize = 96;
constexpr int kEnvelopeSamples = 64;

std::vector<filter::BehaviouralCut> make_universe(int n) {
    std::vector<filter::BehaviouralCut> cuts;
    cuts.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        const double dev = 0.2 * (i - n / 2) / static_cast<double>(n / 2);
        cuts.emplace_back(core::paper_biquad().with_f0_shift(dev));
    }
    return cuts;
}

// Returns false when any parallel result diverged from the serial one, so
// CI can gate on the exit code, not on grepping the table.
[[nodiscard]] bool print_scaling_report(std::ostream& out) {
    bool all_identical = true;
    out << "=== [scaling] batch NDF + MC envelope, serial vs N threads ===\n";
    out << "hardware_concurrency: " << std::thread::hardware_concurrency()
        << " (speedup is bounded by physical cores; determinism is not)\n";

    core::SignaturePipeline pipe = server::make_pipeline({.samples_per_period = 4096});
    pipe.set_golden(filter::BehaviouralCut(core::paper_biquad()));
    const auto universe = make_universe(kUniverseSize);
    std::vector<const filter::Cut*> raw;
    for (const auto& c : universe)
        raw.push_back(&c);

    // Serial reference: the one-by-one SignaturePipeline::ndf_of loop the
    // batch engine replaces.
    std::vector<double> serial_ndfs(raw.size());
    const double t_serial = seconds_of([&] {
        core::NdfScratch scratch;
        for (std::size_t i = 0; i < raw.size(); ++i)
            serial_ndfs[i] = pipe.ndf_of(*raw[i], scratch);
    });

    TextTable t({"workload", "threads", "time (s)", "items/s", "speedup",
                 "bit-identical"});
    t.add_row({"batch NDF", "serial", format_double(t_serial, 4),
               format_double(kUniverseSize / t_serial, 1), "1.00", "-"});
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
        const core::BatchNdfEvaluator batch(pipe, {.threads = threads});
        std::vector<double> ndfs;
        const double dt = seconds_of([&] { ndfs = batch.evaluate(raw); });
        const bool identical = ndfs == serial_ndfs;
        all_identical = all_identical && identical;
        t.add_row({"batch NDF", std::to_string(threads), format_double(dt, 4),
                   format_double(kUniverseSize / dt, 1),
                   format_double(t_serial / dt, 2),
                   identical ? "yes" : "NO (BUG)"});
    }

    // Monte-Carlo envelope of the Fig. 8 curve under mismatch-like f0
    // scatter: one curve per sample over a 9-point deviation grid.
    std::vector<double> grid;
    for (int d = -20; d <= 20; d += 5)
        grid.push_back(d);
    const auto curve_fn = [&](Rng& rng, const std::vector<double>& xs) {
        const double scatter = rng.normal(0.0, 0.02);
        std::vector<double> ys;
        ys.reserve(xs.size());
        core::NdfScratch scratch;
        for (const double d : xs) {
            const filter::BehaviouralCut cut(
                core::paper_biquad().with_f0_shift(d / 100.0 + scatter));
            ys.push_back(pipe.ndf_of(cut, scratch));
        }
        return ys;
    };
    mc::CurveEnvelope env_serial;
    const double t_env_serial = seconds_of([&] {
        env_serial =
            mc::monte_carlo_envelope(kEnvelopeSamples, 20100308, grid, curve_fn);
    });
    t.add_row({"MC envelope", "serial", format_double(t_env_serial, 4),
               format_double(kEnvelopeSamples / t_env_serial, 1), "1.00", "-"});
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
        mc::CurveEnvelope env;
        const double dt = seconds_of([&] {
            env = mc::monte_carlo_envelope_parallel(kEnvelopeSamples, 20100308,
                                                    grid, curve_fn, threads);
        });
        const bool identical = env.p05 == env_serial.p05 &&
                               env.p50 == env_serial.p50 &&
                               env.p95 == env_serial.p95 &&
                               env.lo == env_serial.lo && env.hi == env_serial.hi;
        all_identical = all_identical && identical;
        t.add_row({"MC envelope", std::to_string(threads), format_double(dt, 4),
                   format_double(kEnvelopeSamples / dt, 1),
                   format_double(t_env_serial / dt, 2),
                   identical ? "yes" : "NO (BUG)"});
    }
    t.print(out);
    if (!all_identical)
        out << "ERROR: parallel results diverged from serial (determinism bug)\n";
    return all_identical;
}

void BM_BatchNdfThreads(benchmark::State& state) {
    core::SignaturePipeline pipe = server::make_pipeline({.samples_per_period = 2048});
    pipe.set_golden(filter::BehaviouralCut(core::paper_biquad()));
    const auto universe = make_universe(kUniverseSize);
    std::vector<const filter::Cut*> raw;
    for (const auto& c : universe)
        raw.push_back(&c);
    const core::BatchNdfEvaluator batch(
        pipe, {.threads = static_cast<unsigned>(state.range(0))});
    for (auto _ : state)
        benchmark::DoNotOptimize(batch.evaluate(raw));
    state.SetItemsProcessed(state.iterations() * kUniverseSize);
}
BENCHMARK(BM_BatchNdfThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_MonteCarloParallelThreads(benchmark::State& state) {
    core::SignaturePipeline pipe = server::make_pipeline({.samples_per_period = 2048});
    pipe.set_golden(filter::BehaviouralCut(core::paper_biquad()));
    const filter::BehaviouralCut cut(core::paper_biquad().with_f0_shift(0.01));
    core::PipelineOptions noisy_opts = pipe.options();
    noisy_opts.noise_sigma = 0.005;
    core::SignaturePipeline noisy(pipe.bank(), pipe.stimulus(), noisy_opts);
    noisy.set_golden(filter::BehaviouralCut(core::paper_biquad()));
    const auto fn = [&](Rng& rng) {
        thread_local core::NdfScratch scratch;
        return noisy.ndf_of(cut, scratch, &rng);
    };
    const auto threads = static_cast<unsigned>(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(
            mc::run_monte_carlo_parallel(64, 20100308, fn, threads));
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_MonteCarloParallelThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

} // namespace

int main(int argc, char** argv) {
    const bool identical = print_scaling_report(std::cout);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return identical ? 0 : 1;
}
