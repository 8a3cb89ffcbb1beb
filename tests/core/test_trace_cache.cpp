// The stimulus trace cache: one sampling per job, exact keying, and safe
// concurrent reuse.
//
// The misses() counter is the sampling-count probe — every actual stimulus
// sampling performed through the cache is exactly one miss, so "a whole
// behavioural job costs one sampling" is assertable as misses() == 1
// across pipeline construction plus any number of member evaluations at
// any thread count. Keys are exact hexfloat fingerprints: a stimulus
// differing in a single phase bit, a different samples_per_period, or the
// other sampling mode can never alias. The concurrency tests run a
// SweepService worker pool over the one shared immutable trace, and
// pipelines built on concurrent threads onto one x pair lane entry (the
// TSan CI lane executes this file under ThreadSanitizer).

#include "core/trace_cache.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "core/batch_ndf.h"
#include "core/paper_setup.h"
#include "core/pipeline.h"
#include "filter/cut.h"
#include "monitor/table1.h"
#include "server/sweep_service.h"

namespace xysig {
namespace {

using core::StimulusTraceCache;

/// Every test starts from an empty cache with zeroed counters so the
/// misses() probe counts only its own samplings.
class TraceCacheTest : public ::testing::Test {
protected:
    void SetUp() override { StimulusTraceCache::instance().clear(); }
};

core::SignaturePipeline make_pipeline(bool fast_math = false,
                                      std::size_t spp = 1024) {
    core::PipelineOptions opts;
    opts.samples_per_period = spp;
    opts.fast_math = fast_math;
    return core::SignaturePipeline(monitor::build_table1_bank(),
                                   core::paper_stimulus(), opts);
}

/// A behavioural-shaped member with no stable solution: claims the
/// x-is-stimulus capability (so it rides the shared trace) but every
/// evaluation diverges — the NaN member of a catastrophic universe.
class DivergingCut final : public filter::Cut {
public:
    void respond_into(const MultitoneWaveform&, std::size_t,
                      std::vector<double>&, std::vector<double>&,
                      double&) const override {
        throw NumericError("diverging member has no steady state");
    }
    [[nodiscard]] bool x_is_stimulus() const noexcept override { return true; }
    void respond_y_into(const MultitoneWaveform&, std::size_t,
                        std::vector<double>&, double&,
                        SampleMode) const override {
        throw NumericError("diverging member has no steady state");
    }
    [[nodiscard]] std::string description() const override {
        return "diverging";
    }
};

TEST_F(TraceCacheTest, PipelineSamplesStimulusExactlyOnce) {
    const core::SignaturePipeline pipeline = make_pipeline();
    auto& cache = StimulusTraceCache::instance();
    EXPECT_EQ(cache.misses(), 1u);
    ASSERT_NE(pipeline.stimulus_trace(), nullptr);
    ASSERT_EQ(pipeline.stimulus_trace()->size(), 1024u);

    // The shared trace is bit-identical to sampling directly.
    std::vector<double> reference;
    SampledSignal::sample_waveform_into(pipeline.stimulus(), 0.0,
                                        pipeline.stimulus().period(), 1024,
                                        reference);
    for (std::size_t i = 0; i < reference.size(); ++i)
        ASSERT_EQ(std::bit_cast<std::uint64_t>((*pipeline.stimulus_trace())[i]),
                  std::bit_cast<std::uint64_t>(reference[i]))
            << "sample " << i;
}

TEST_F(TraceCacheTest, WholeBehaviouralJobCostsOneSampling) {
    core::SignaturePipeline pipeline = make_pipeline();
    pipeline.set_golden(filter::BehaviouralCut(core::paper_biquad()));
    auto& cache = StimulusTraceCache::instance();
    ASSERT_EQ(cache.misses(), 1u);

    std::vector<double> deviations;
    for (int d = -12; d <= 12; ++d)
        deviations.push_back(d);
    const core::BatchNdfEvaluator batch(pipeline, {.threads = 3});
    const std::vector<double> ndfs =
        batch.evaluate_deviations(core::paper_biquad(), deviations);
    ASSERT_EQ(ndfs.size(), deviations.size());

    // members x samples stimulus sine evaluations eliminated: the whole
    // job performed exactly the one sampling from construction.
    EXPECT_EQ(cache.misses(), 1u);

    // And sharing did not change a single bit vs the serial reference.
    core::NdfScratch scratch;
    for (std::size_t i = 0; i < deviations.size(); ++i) {
        const filter::BehaviouralCut cut(
            core::paper_biquad().with_f0_shift(deviations[i] / 100.0));
        ASSERT_EQ(ndfs[i], pipeline.ndf_of(cut, scratch)) << "member " << i;
    }
}

TEST_F(TraceCacheTest, PhaseOnlyDifferenceNeverAliases) {
    const MultitoneWaveform base = core::paper_stimulus();
    std::vector<Tone> tones = base.tones();
    ASSERT_FALSE(tones.empty());
    // The smallest representable phase perturbation: one bit.
    tones[0].phase_rad = std::nextafter(tones[0].phase_rad, 1e9);
    const MultitoneWaveform perturbed(base.offset(), tones);

    const std::string key_a =
        core::stimulus_trace_key(base, 1024, SampleMode::exact);
    const std::string key_b =
        core::stimulus_trace_key(perturbed, 1024, SampleMode::exact);
    EXPECT_NE(key_a, key_b);

    // Mode and samples_per_period are part of the key as well.
    EXPECT_NE(key_a, core::stimulus_trace_key(base, 2048, SampleMode::exact));
    EXPECT_NE(key_a, core::stimulus_trace_key(base, 1024, SampleMode::fast_math));

    auto& cache = StimulusTraceCache::instance();
    const core::SignaturePipeline a(monitor::build_table1_bank(), base,
                                    {.samples_per_period = 1024});
    const core::SignaturePipeline b(monitor::build_table1_bank(), perturbed,
                                    {.samples_per_period = 1024});
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_NE(a.stimulus_trace().get(), b.stimulus_trace().get());
}

TEST_F(TraceCacheTest, FastAndExactModesAreDistinctEntries) {
    core::SignaturePipeline pipeline = make_pipeline(false);
    auto& cache = StimulusTraceCache::instance();
    ASSERT_EQ(cache.misses(), 1u);

    pipeline.set_fast_math(true); // second mode -> second sampling
    EXPECT_EQ(cache.misses(), 2u);
    pipeline.set_fast_math(false); // back to the retained exact entry
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_GE(cache.hits(), 1u);
    EXPECT_EQ(cache.size(), 2u);
}

TEST_F(TraceCacheTest, NanMembersLeaveSharingIntact) {
    core::SignaturePipeline pipeline = make_pipeline();
    const filter::BehaviouralCut golden(core::paper_biquad());
    pipeline.set_golden(golden);
    auto& cache = StimulusTraceCache::instance();
    ASSERT_EQ(cache.misses(), 1u);

    const filter::BehaviouralCut good_a(core::paper_biquad().with_f0_shift(0.1));
    const filter::BehaviouralCut good_b(core::paper_biquad().with_f0_shift(-0.1));
    const DivergingCut bad;
    const std::vector<const filter::Cut*> universe = {&good_a, &bad, &good_b};

    const core::BatchNdfEvaluator batch(pipeline, {.threads = 2});
    const std::vector<double> ndfs = batch.evaluate(universe);
    ASSERT_EQ(ndfs.size(), 3u);
    EXPECT_TRUE(std::isnan(ndfs[1]));

    // The diverging member neither re-sampled nor corrupted the shared
    // trace: still one sampling, and its neighbours match the serial path.
    EXPECT_EQ(cache.misses(), 1u);
    core::NdfScratch scratch;
    EXPECT_EQ(ndfs[0], pipeline.ndf_of(good_a, scratch));
    EXPECT_EQ(ndfs[2], pipeline.ndf_of(good_b, scratch));
}

TEST_F(TraceCacheTest, SweepServiceWorkersShareOneTrace) {
    // Four workers, small shards: every worker touches the shared
    // immutable buffer concurrently (the TSan lane runs this file).
    server::SweepService service(make_pipeline(), {.workers = 4});
    auto& cache = StimulusTraceCache::instance();
    ASSERT_EQ(cache.misses(), 1u);

    std::vector<double> deviations;
    for (int d = -30; d < 30; ++d)
        deviations.push_back(static_cast<double>(d) / 2.0);
    server::SweepJob job =
        server::SweepJob::deviation_grid(core::paper_biquad(), deviations);

    std::vector<double> streamed;
    const server::JobSummary summary = service.run(
        job, [&](const server::SweepResult& r) { streamed.push_back(r.ndf); });
    ASSERT_EQ(summary.members_done, deviations.size());
    EXPECT_EQ(cache.misses(), 1u) << "workers must not re-sample the stimulus";

    // A fast_math job needs (and gets) its own trace entry; flipping back
    // is a hit, not a third sampling.
    job.fast_math = true;
    std::vector<double> fast_streamed;
    (void)service.run(job, [&](const server::SweepResult& r) {
        fast_streamed.push_back(r.ndf);
    });
    EXPECT_EQ(cache.misses(), 2u);
    job.fast_math = false;
    (void)service.run(job, [](const server::SweepResult&) {});
    EXPECT_EQ(cache.misses(), 2u);

    // Same job, same mode: bit-identical to the serial batch engine.
    core::SignaturePipeline serial = make_pipeline();
    serial.set_golden(filter::BehaviouralCut(core::paper_biquad()));
    const core::BatchNdfEvaluator batch(serial, {.threads = 1});
    const std::vector<double> reference =
        batch.evaluate_deviations(core::paper_biquad(), deviations);
    ASSERT_EQ(streamed.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i)
        ASSERT_EQ(streamed[i], reference[i]) << "member " << i;
}

TEST_F(TraceCacheTest, ConcurrentPipelinesShareOneLaneEntry) {
    auto& lanes = core::XPairLaneCache::instance();
    lanes.clear();
    constexpr std::size_t kThreads = 4;
    std::vector<std::shared_ptr<const kernels::CompiledMonitorBank::XPairLanes>> bound(
        kThreads);
    std::vector<double> ndfs(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            core::SignaturePipeline pipe = make_pipeline();
            pipe.set_golden(filter::BehaviouralCut(core::paper_biquad()));
            ndfs[t] = pipe.ndf_of(
                filter::BehaviouralCut(core::paper_biquad().with_f0_shift(0.05)));
            bound[t] = pipe.compiled_bank().x_lanes();
        });
    for (std::thread& th : threads)
        th.join();
    ASSERT_NE(bound[0], nullptr);
    for (std::size_t t = 1; t < kThreads; ++t) {
        EXPECT_EQ(bound[t], bound[0]) << "thread " << t;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(ndfs[t]),
                  std::bit_cast<std::uint64_t>(ndfs[0]))
            << "thread " << t;
    }
    EXPECT_EQ(lanes.size(), 1u);
    EXPECT_EQ(lanes.misses(), 1u); // racing computes insert once
}

TEST_F(TraceCacheTest, LruEvictionAndSharedPtrKeepAlive) {
    // StimulusTraceCache's body at a bound small enough to evict.
    core::ExactLruCache<std::vector<double>, 2> cache;

    const auto make = [](double v) {
        return [v] { return std::vector<double>(8, v); };
    };
    const auto first = cache.find_or_compute("k1", make(1.0));
    (void)cache.find_or_compute("k2", make(2.0));
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 0u);

    // Third key evicts the LRU entry (k1) — but the returned shared_ptr
    // keeps the evicted trace alive and intact for existing holders.
    (void)cache.find_or_compute("k3", make(3.0));
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 1u);
    ASSERT_EQ(first->size(), 8u);
    EXPECT_EQ((*first)[0], 1.0);

    // Re-fetching the evicted key is a genuine recompute (a miss).
    const std::size_t misses_before = cache.misses();
    (void)cache.find_or_compute("k1", make(1.0));
    EXPECT_EQ(cache.misses(), misses_before + 1);

    // Touching k2 refreshes its recency: the next insert evicts k1 again,
    // not k2.
    (void)cache.find_or_compute("k2", make(2.0));
    (void)cache.find_or_compute("k4", make(4.0));
    const std::size_t misses_k2 = cache.misses();
    (void)cache.find_or_compute("k2", make(2.0));
    EXPECT_EQ(cache.misses(), misses_k2) << "k2 should have survived";

    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
    EXPECT_EQ(cache.hits(), 0u);
}

} // namespace
} // namespace xysig
