// Reproduces Fig. 7: the chronogram of digital signatures (decimal zone
// codes over one 200 us period) for the golden and +10% f0 circuits, the
// Hamming-distance chronogram, and the NDF anchor (paper: 0.1021). The
// signature is produced by the Fig. 5 capture unit (10 MHz, 16-bit).
// Then benchmarks signature capture and NDF evaluation.

#include <iostream>

#include <benchmark/benchmark.h>

#include "capture/capture_unit.h"
#include "common/strings.h"
#include "common/table.h"
#include "core/batch_ndf.h"
#include "core/ndf.h"
#include "core/paper_setup.h"
#include "core/pipeline.h"
#include "monitor/table1.h"
#include "report/figure.h"

namespace {

using namespace xysig;

core::SignaturePipeline make_pipeline() {
    core::PipelineOptions opts;
    opts.samples_per_period = 8192;
    opts.quantise = true;
    opts.capture.f_clk = 10e6;
    opts.capture.counter_bits = 16;
    return core::SignaturePipeline(monitor::build_table1_bank(),
                                   core::paper_stimulus(), opts);
}

report::Series chronogram_series(const capture::Chronogram& ch, const char* name) {
    report::Series s;
    s.name = name;
    // Staircase rendering: one point per event plus the segment end.
    for (std::size_t i = 0; i < ch.events().size(); ++i) {
        const auto& ev = ch.events()[i];
        const double t_next = ev.t + ch.dwell(i);
        s.xs.push_back(ev.t * 1e6);
        s.ys.push_back(ev.code);
        s.xs.push_back(t_next * 1e6);
        s.ys.push_back(ev.code);
    }
    return s;
}

void print_signature_table(std::ostream& out, const capture::Signature& sig,
                           const char* name) {
    out << "signature (" << name << "): {(Zi, Di)} with Di in ticks of "
        << format_double(1e9 / sig.f_clk(), 3) << " ns\n";
    TextTable t({"i", "Zi (bin)", "Zi (dec)", "Di (ticks)", "Di (us)"});
    for (std::size_t i = 0; i < sig.size(); ++i) {
        const auto& e = sig.entries()[i];
        t.add_row({std::to_string(i + 1), format_code_binary(e.code, 6),
                   std::to_string(e.code), std::to_string(e.ticks),
                   format_double(static_cast<double>(e.ticks) / sig.f_clk() * 1e6, 4)});
    }
    t.print(out);
}

void print_reproduction(std::ostream& out) {
    out << "=== [fig7] Signature chronograms and Hamming distance (+10% f0) "
           "===\n";
    core::SignaturePipeline pipe = make_pipeline();
    const filter::BehaviouralCut golden(core::paper_biquad());
    const filter::BehaviouralCut defective(
        core::paper_biquad().with_f0_shift(0.10));

    const auto sig_golden = pipe.capture(golden);
    const auto sig_defect = pipe.capture(defective);
    print_signature_table(out, sig_golden.signature, "golden");
    print_signature_table(out, sig_defect.signature, "f0+10%");

    const auto ch_golden = sig_golden.signature.to_chronogram();
    const auto ch_defect = sig_defect.signature.to_chronogram();

    report::Figure fig("fig7a", "Chronogram of digital signatures", "time (us)",
                       "decimal code");
    fig.add_series(chronogram_series(ch_golden, "golden"));
    fig.add_series(chronogram_series(ch_defect, "f0+10%"));
    fig.print(out);

    const auto profile = core::hamming_profile(ch_defect, ch_golden);
    report::Figure hfig("fig7b", "Hamming distance chronogram", "time (us)",
                        "dH");
    report::Series hs;
    hs.name = "dH(golden, f0+10%)";
    for (const auto& seg : profile) {
        hs.xs.push_back(seg.t_begin * 1e6);
        hs.ys.push_back(seg.distance);
        hs.xs.push_back(seg.t_end * 1e6);
        hs.ys.push_back(seg.distance);
    }
    hfig.add_series(std::move(hs));
    hfig.print(out);

    const double ndf_value = core::ndf(ch_defect, ch_golden);
    unsigned max_d = 0;
    for (const auto& seg : profile)
        max_d = std::max(max_d, seg.distance);

    report::PaperComparison cmp("Fig. 7");
    cmp.add("NDF (+10% f0)", "0.1021", ndf_value,
            "stimulus/CUT calibrated, see core/paper_setup.h");
    cmp.add("period", "200 us", ch_golden.period() * 1e6, "us");
    cmp.add("max Hamming distance", "2", static_cast<double>(max_d),
            "short dH=2 episode when a zone is skipped");
    cmp.add("golden zone visits", "~16 (Fig. 7 upper)",
            static_cast<double>(ch_golden.zone_visits()), "");
    cmp.print(out);
}

void BM_CaptureSignature(benchmark::State& state) {
    core::SignaturePipeline pipe = make_pipeline();
    const filter::BehaviouralCut golden(core::paper_biquad());
    const XyTrace tr = pipe.trace(golden);
    const capture::CaptureUnit unit(pipe.options().capture);
    for (auto _ : state)
        benchmark::DoNotOptimize(unit.capture(tr, pipe.bank()));
}
BENCHMARK(BM_CaptureSignature);

void BM_NdfExact(benchmark::State& state) {
    core::SignaturePipeline pipe = make_pipeline();
    const filter::BehaviouralCut golden(core::paper_biquad());
    const filter::BehaviouralCut defective(
        core::paper_biquad().with_f0_shift(0.10));
    const auto a = pipe.chronogram(golden);
    const auto b = pipe.chronogram(defective);
    for (auto _ : state)
        benchmark::DoNotOptimize(core::ndf(a, b));
}
BENCHMARK(BM_NdfExact);

void BM_FullPipelineNdf(benchmark::State& state) {
    core::SignaturePipeline pipe = make_pipeline();
    pipe.set_golden(filter::BehaviouralCut(core::paper_biquad()));
    const filter::BehaviouralCut defective(
        core::paper_biquad().with_f0_shift(0.10));
    for (auto _ : state)
        benchmark::DoNotOptimize(pipe.ndf_of(defective));
}
BENCHMARK(BM_FullPipelineNdf);

void BM_FullPipelineNdfScratch(benchmark::State& state) {
    // The buffer-reusing path the batch engine runs per worker thread.
    core::SignaturePipeline pipe = make_pipeline();
    pipe.set_golden(filter::BehaviouralCut(core::paper_biquad()));
    const filter::BehaviouralCut defective(
        core::paper_biquad().with_f0_shift(0.10));
    core::NdfScratch scratch;
    for (auto _ : state)
        benchmark::DoNotOptimize(pipe.ndf_of(defective, scratch));
}
BENCHMARK(BM_FullPipelineNdfScratch);

void BM_BatchNdfUniverse(benchmark::State& state) {
    // A 64-CUT fault universe against one golden signature through the
    // batch engine; range(0) is the worker-thread count.
    core::SignaturePipeline pipe = make_pipeline();
    pipe.set_golden(filter::BehaviouralCut(core::paper_biquad()));
    std::vector<filter::BehaviouralCut> universe;
    for (int i = 0; i < 64; ++i)
        universe.emplace_back(
            core::paper_biquad().with_f0_shift((i - 32) / 200.0));
    std::vector<const filter::Cut*> raw;
    for (const auto& c : universe)
        raw.push_back(&c);
    const core::BatchNdfEvaluator batch(
        pipe, {.threads = static_cast<unsigned>(state.range(0))});
    for (auto _ : state)
        benchmark::DoNotOptimize(batch.evaluate(raw));
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_BatchNdfUniverse)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

} // namespace

int main(int argc, char** argv) {
    print_reproduction(std::cout);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
