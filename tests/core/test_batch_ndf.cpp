// Batch NDF engine: concurrent evaluation of a CUT universe must match
// SignaturePipeline::ndf_of one-by-one results exactly, and the scratch
// path must be bit-identical to the allocating path.

#include "core/batch_ndf.h"

#include <bit>
#include <cstdint>
#include <latch>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "core/paper_setup.h"
#include "monitor/table1.h"

namespace xysig::core {
namespace {

SignaturePipeline make_pipeline(PipelineOptions opts = {}) {
    opts.samples_per_period = 2048; // keep the batch tests fast
    return SignaturePipeline(monitor::build_table1_bank(), paper_stimulus(), opts);
}

std::vector<filter::BehaviouralCut> deviation_universe() {
    std::vector<filter::BehaviouralCut> cuts;
    for (int d = -20; d <= 20; d += 2)
        cuts.emplace_back(paper_biquad().with_f0_shift(d / 100.0));
    return cuts;
}

TEST(BatchNdfEvaluator, MatchesSerialNdfOfExactly) {
    SignaturePipeline pipe = make_pipeline();
    pipe.set_golden(filter::BehaviouralCut(paper_biquad()));

    const auto universe = deviation_universe();
    std::vector<const filter::Cut*> raw;
    for (const auto& c : universe)
        raw.push_back(&c);

    for (const unsigned threads : {1u, 2u, 4u}) {
        const BatchNdfEvaluator batch(pipe, {.threads = threads});
        const auto ndfs = batch.evaluate(raw);
        ASSERT_EQ(ndfs.size(), universe.size());
        for (std::size_t i = 0; i < universe.size(); ++i)
            EXPECT_DOUBLE_EQ(ndfs[i], pipe.ndf_of(universe[i]))
                << "cut " << i << " threads " << threads;
    }
}

TEST(BatchNdfEvaluator, QuantisedCapturePathAlsoMatches) {
    PipelineOptions opts;
    opts.quantise = true;
    opts.capture.f_clk = 10e6;
    opts.capture.counter_bits = 16;
    SignaturePipeline pipe = make_pipeline(opts);
    pipe.set_golden(filter::BehaviouralCut(paper_biquad()));

    const auto universe = deviation_universe();
    std::vector<const filter::Cut*> raw;
    for (const auto& c : universe)
        raw.push_back(&c);

    const BatchNdfEvaluator batch(pipe, {.threads = 4});
    const auto ndfs = batch.evaluate(raw);
    for (std::size_t i = 0; i < universe.size(); ++i)
        EXPECT_DOUBLE_EQ(ndfs[i], pipe.ndf_of(universe[i])) << "cut " << i;
}

TEST(BatchNdfEvaluator, OwningPointerOverload) {
    SignaturePipeline pipe = make_pipeline();
    pipe.set_golden(filter::BehaviouralCut(paper_biquad()));
    std::vector<std::unique_ptr<filter::Cut>> cuts;
    cuts.push_back(std::make_unique<filter::BehaviouralCut>(paper_biquad()));
    cuts.push_back(std::make_unique<filter::BehaviouralCut>(
        paper_biquad().with_f0_shift(0.10)));
    const BatchNdfEvaluator batch(pipe);
    const auto ndfs = batch.evaluate(cuts);
    ASSERT_EQ(ndfs.size(), 2u);
    EXPECT_DOUBLE_EQ(ndfs[0], 0.0);
    EXPECT_GT(ndfs[1], 0.05);
}

TEST(BatchNdfEvaluator, EvaluateDeviationsMatchesManualUniverse) {
    SignaturePipeline pipe = make_pipeline();
    pipe.set_golden(filter::BehaviouralCut(paper_biquad()));
    const std::vector<double> devs = {-10.0, -5.0, 0.0, 5.0, 10.0};
    const BatchNdfEvaluator batch(pipe, {.threads = 4});
    const auto ndfs = batch.evaluate_deviations(paper_biquad(), devs);
    ASSERT_EQ(ndfs.size(), devs.size());
    for (std::size_t i = 0; i < devs.size(); ++i) {
        const filter::BehaviouralCut cut(
            paper_biquad().with_f0_shift(devs[i] / 100.0));
        EXPECT_DOUBLE_EQ(ndfs[i], pipe.ndf_of(cut)) << "dev " << devs[i];
    }
}

TEST(BatchNdfEvaluator, NestedCallsRunOnTheCallingThread) {
    // From a parallel_for body, or from tasks occupying every shared-pool
    // worker, the evaluator must run inline: waiting on pool slots the
    // caller itself holds would deadlock.
    SignaturePipeline pipe = make_pipeline();
    pipe.set_golden(filter::BehaviouralCut(paper_biquad()));
    const std::vector<double> devs = {-10.0, -5.0, 0.0, 5.0, 10.0};
    const BatchNdfEvaluator batch(pipe, {.threads = 4});
    const std::vector<double> direct =
        batch.evaluate_deviations(paper_biquad(), devs);

    ThreadPool& shared = ThreadPool::shared();
    std::vector<std::vector<double>> runs(2 * shared.thread_count());
    parallel_for(
        0, shared.thread_count(),
        [&](std::size_t i) {
            runs[i] = batch.evaluate_deviations(paper_biquad(), devs);
        },
        shared.thread_count());
    std::latch pool_runs_done(
        static_cast<std::ptrdiff_t>(runs.size() - shared.thread_count()));
    for (std::size_t i = shared.thread_count(); i < runs.size(); ++i)
        shared.submit([&, i] {
            runs[i] = batch.evaluate_deviations(paper_biquad(), devs);
            pool_runs_done.count_down();
        });
    pool_runs_done.wait();

    for (const std::vector<double>& run : runs) {
        ASSERT_EQ(run.size(), direct.size());
        for (std::size_t i = 0; i < direct.size(); ++i)
            EXPECT_EQ(std::bit_cast<std::uint64_t>(run[i]),
                      std::bit_cast<std::uint64_t>(direct[i]))
                << "dev " << devs[i];
    }
}

TEST(BatchNdfEvaluator, RequiresGolden) {
    SignaturePipeline pipe = make_pipeline();
    const filter::BehaviouralCut cut(paper_biquad());
    const filter::Cut* raw[] = {&cut};
    const BatchNdfEvaluator batch(pipe);
    EXPECT_THROW((void)batch.evaluate(raw), ContractError);
}

TEST(NdfScratch, ScratchPathBitIdenticalToAllocatingPath) {
    SignaturePipeline pipe = make_pipeline();
    pipe.set_golden(filter::BehaviouralCut(paper_biquad()));
    NdfScratch scratch;
    // Reused across calls on purpose: stale buffer contents must not leak.
    for (int d = -15; d <= 15; d += 5) {
        const filter::BehaviouralCut cut(paper_biquad().with_f0_shift(d / 100.0));
        EXPECT_DOUBLE_EQ(pipe.ndf_of(cut, scratch), pipe.ndf_of(cut))
            << "deviation " << d << "%";
    }
}

TEST(NdfScratch, NoisyScratchPathMatchesNoisyAllocatingPath) {
    PipelineOptions opts;
    opts.noise_sigma = 0.005;
    SignaturePipeline pipe = make_pipeline(opts);
    pipe.set_golden(filter::BehaviouralCut(paper_biquad()));
    const filter::BehaviouralCut cut(paper_biquad().with_f0_shift(0.05));
    NdfScratch scratch;
    // Identical seeds must give identical noise draws on both paths.
    Rng rng_a(99);
    Rng rng_b(99);
    for (int trial = 0; trial < 3; ++trial)
        EXPECT_DOUBLE_EQ(pipe.ndf_of(cut, scratch, &rng_a),
                         pipe.ndf_of(cut, &rng_b))
            << "trial " << trial;
}

TEST(DeviationSweep, ThreadCountDoesNotChangeResults) {
    SignaturePipeline pipe = make_pipeline();
    std::vector<double> devs;
    for (int d = -12; d <= 12; d += 3)
        devs.push_back(d);
    const auto one = deviation_sweep(pipe, paper_biquad(), devs,
                                     SweptParameter::f0, 1);
    const auto four = deviation_sweep(pipe, paper_biquad(), devs,
                                      SweptParameter::f0, 4);
    ASSERT_EQ(one.size(), four.size());
    for (std::size_t i = 0; i < one.size(); ++i) {
        EXPECT_DOUBLE_EQ(one[i].deviation_percent, four[i].deviation_percent);
        EXPECT_DOUBLE_EQ(one[i].ndf_value, four[i].ndf_value);
    }
}

} // namespace
} // namespace xysig::core
