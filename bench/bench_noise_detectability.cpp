// Reproduces the Section IV-C noise study: with null-mean white noise of
// 3*sigma = 15 mV on the observed signals, f0 deviations down to 1% are
// detected. Then benchmarks the noisy pipeline.

#include <iostream>

#include <benchmark/benchmark.h>

#include "common/strings.h"
#include "common/table.h"
#include "core/detectability.h"
#include "core/paper_setup.h"
#include "monitor/table1.h"
#include "report/figure.h"

namespace {

using namespace xysig;

void print_reproduction(std::ostream& out) {
    out << "=== [sec4c] Noise detectability (3*sigma = 15 mV white noise) ===\n";
    core::PipelineOptions popts;
    popts.samples_per_period = 4096;
    core::SignaturePipeline pipe(monitor::build_table1_bank(),
                                 core::paper_stimulus(), popts);

    core::DetectabilityOptions opts;
    opts.trials = 20;
    opts.noise_sigma = 0.005;
    opts.periods_averaged = 16;
    opts.threads = 0; // parallel trials; results identical to serial
    const std::vector<double> devs = {-5.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 5.0};
    const std::uint64_t seed = 20100308; // DATE 2010 vintage
    const auto study =
        core::noise_detectability(pipe, core::paper_biquad(), devs, opts, seed);

    out << "seed: " << seed << ", trials: " << opts.trials
        << " (parallel, bit-identical to serial)"
        << ", periods averaged per capture: " << opts.periods_averaged << "\n";
    out << "noise floor: mean NDF = " << format_double(study.noise_floor_mean, 4)
        << ", decision threshold (p99) = " << format_double(study.threshold, 4)
        << "\n";

    TextTable t({"deviation %", "NDF mean", "NDF min", "NDF max",
                 "detection rate", "detected"});
    for (const auto& p : study.points) {
        t.add_row({format_double(p.deviation_percent, 3),
                   format_double(p.ndf_mean, 4), format_double(p.ndf_min, 4),
                   format_double(p.ndf_max, 4),
                   format_double(p.detection_rate, 3),
                   p.detected ? "yes" : "no"});
    }
    t.print(out);

    report::PaperComparison cmp("Section IV-C noise claim");
    cmp.add("noise", "white, null mean, 3*sigma = 0.015 V", "same", "");
    cmp.add("minimum detected |deviation|", "1%",
            format_double(study.minimum_detectable(), 3) + "%",
            "needs the 16-period averaged capture");
    cmp.print(out);
}

void BM_NoisyNdf(benchmark::State& state) {
    core::PipelineOptions popts;
    popts.samples_per_period = static_cast<std::size_t>(state.range(0));
    popts.noise_sigma = 0.005;
    core::SignaturePipeline pipe(monitor::build_table1_bank(),
                                 core::paper_stimulus(), popts);
    pipe.set_golden(filter::BehaviouralCut(core::paper_biquad()));
    const filter::BehaviouralCut cut(core::paper_biquad().with_f0_shift(0.01));
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(pipe.ndf_of(cut, &rng));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NoisyNdf)->Arg(2048)->Arg(8192)->Unit(benchmark::kMillisecond);

void BM_NoisyNdfScratch(benchmark::State& state) {
    // Same as BM_NoisyNdf but through the buffer-reusing scratch path the
    // batch engine uses; the delta is the trace (re)allocation cost.
    core::PipelineOptions popts;
    popts.samples_per_period = static_cast<std::size_t>(state.range(0));
    popts.noise_sigma = 0.005;
    core::SignaturePipeline pipe(monitor::build_table1_bank(),
                                 core::paper_stimulus(), popts);
    pipe.set_golden(filter::BehaviouralCut(core::paper_biquad()));
    const filter::BehaviouralCut cut(core::paper_biquad().with_f0_shift(0.01));
    Rng rng(1);
    core::NdfScratch scratch;
    for (auto _ : state)
        benchmark::DoNotOptimize(pipe.ndf_of(cut, scratch, &rng));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NoisyNdfScratch)->Arg(2048)->Arg(8192)->Unit(benchmark::kMillisecond);

void BM_DetectabilityStudy(benchmark::State& state) {
    // The full Section IV-C study (noise floor + all deviation points)
    // through the parallel Monte-Carlo engine; range(0) is the thread count.
    core::PipelineOptions popts;
    popts.samples_per_period = 1024;
    core::SignaturePipeline pipe(monitor::build_table1_bank(),
                                 core::paper_stimulus(), popts);
    core::DetectabilityOptions opts;
    opts.trials = 8;
    opts.periods_averaged = 4;
    opts.threads = static_cast<unsigned>(state.range(0));
    const std::vector<double> devs = {-2.0, -1.0, 1.0, 2.0};
    for (auto _ : state)
        benchmark::DoNotOptimize(core::noise_detectability(
            pipe, core::paper_biquad(), devs, opts, 20100308));
}
BENCHMARK(BM_DetectabilityStudy)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()->UseRealTime();

} // namespace

int main(int argc, char** argv) {
    print_reproduction(std::cout);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
