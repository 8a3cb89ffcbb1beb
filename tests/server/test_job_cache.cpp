// The pipeline half of the whole-job cache key: an exact fingerprint that
// moves with every bit-relevant knob and switches caching off — never
// aliases — for pipelines whose bits cannot be fingerprinted. The cache
// body itself is core::ExactLruCache (tests/core/test_golden_cache.cpp);
// full-universe entries serving member slices are pinned in
// tests/server/test_scheduler.cpp. JobResultBytes, its weigh policy, is
// pinned here; the scheduler's over-ceiling job in test_scheduler.cpp.

#include "server/job_cache.h"

#include <string>

#include <gtest/gtest.h>

#include "core/paper_setup.h"
#include "core/trace_cache.h"
#include "support/server_helpers.h"

namespace xysig::server {
namespace {

TEST(PipelineFingerprint, ExactWhenCacheableEmptyOtherwise) {
    core::PipelineOptions opts;
    opts.samples_per_period = 256;
    const std::string fp = pipeline_fingerprint(make_pipeline(opts));
    ASSERT_FALSE(fp.empty());
    // Deterministic: same construction, same fingerprint.
    EXPECT_EQ(fp, pipeline_fingerprint(make_pipeline(opts)));
    // Every bit-relevant knob must move the fingerprint.
    core::PipelineOptions spp = opts;
    spp.samples_per_period = 512;
    EXPECT_NE(fp, pipeline_fingerprint(make_pipeline(spp)));
    // Noise and capture quantisation make results non-replayable from a
    // content key (RNG / capture options outside the key): caching off.
    core::PipelineOptions noisy = opts;
    noisy.noise_sigma = 1e-3;
    EXPECT_TRUE(pipeline_fingerprint(make_pipeline(noisy)).empty());
    core::PipelineOptions quantised = opts;
    quantised.quantise = true;
    EXPECT_TRUE(pipeline_fingerprint(make_pipeline(quantised)).empty());

    // One stimulus fingerprint: this fingerprint, the golden-cache key and
    // the trace-cache key all embed the same "stim{...}" substring.
    const core::SignaturePipeline pipe = make_pipeline(opts);
    const auto stim_of = [](const std::string& key) {
        const std::size_t begin = key.find("stim{");
        return begin == std::string::npos
                   ? std::string()
                   : key.substr(begin, key.find('}', begin) - begin + 1);
    };
    const std::string stim = stim_of(fp);
    ASSERT_FALSE(stim.empty());
    EXPECT_EQ(stim, core::stimulus_fingerprint(pipe.stimulus()));
    const std::string golden_key =
        pipe.golden_cache_key(filter::BehaviouralCut(core::paper_biquad()));
    EXPECT_EQ(stim, stim_of(golden_key));
    // One pipeline fingerprint: the golden key is "cut{…}|" + the same
    // string the job cache keys on.
    ASSERT_GT(golden_key.size(), fp.size());
    EXPECT_EQ(golden_key.substr(golden_key.size() - fp.size()), fp);
    EXPECT_EQ(golden_key.substr(0, 4), "cut{");
    EXPECT_EQ(stim, stim_of(core::stimulus_trace_key(pipe.stimulus(), 256,
                                                     SampleMode::exact)));
}

TEST(JobResultBytes, BoundsAndWeighKeyPlusEveryResult) {
    EXPECT_EQ(JobResultCache::kCapacity, 64u);
    EXPECT_EQ(JobResultCache::kWeightCeiling, std::size_t{8} << 20);
    SweepResult nan_member;
    nan_member.label = "open(R1)";
    SweepResult member;
    member.label = "dev(f0,5%)";
    member.signature = capture::Chronogram(1.0, 6, {{0.0, 1u}, {0.25, 3u}, {0.5, 2u}});
    EXPECT_EQ(JobResultBytes::result_bytes(nan_member), sizeof(SweepResult) + 8);
    EXPECT_EQ(JobResultBytes::result_bytes(member),
              sizeof(SweepResult) + 10 + 3 * sizeof(capture::CodeEvent));
    EXPECT_EQ(JobResultBytes::weigh("key", {nan_member, member}),
              3 + JobResultBytes::result_bytes(nan_member) +
                  JobResultBytes::result_bytes(member));
}

} // namespace
} // namespace xysig::server
