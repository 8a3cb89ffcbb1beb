// JobResultCache guarantees: content-addressed whole-job lookups with
// covering-range semantics (a cached superset serves any contained member
// slice), LRU bounding with superset-absorbs-subset insertion, and an
// exact pipeline fingerprint that switches caching off — never aliases —
// for pipelines whose bits cannot be fingerprinted.

#include "server/job_cache.h"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/paper_setup.h"
#include "core/trace_cache.h"
#include "monitor/table1.h"

namespace xysig::server {
namespace {

core::SignaturePipeline make_pipeline(core::PipelineOptions opts = {}) {
    return core::SignaturePipeline(monitor::build_table1_bank(),
                                   core::paper_stimulus(), opts);
}

/// Synthetic result range [first, first+count) under GLOBAL member ids.
std::vector<SweepResult> make_range(std::size_t first, std::size_t count) {
    std::vector<SweepResult> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        SweepResult r;
        r.member_id = first + i;
        r.ndf = 0.125 * static_cast<double>(first + i);
        r.label = "m" + std::to_string(first + i);
        out.push_back(std::move(r));
    }
    return out;
}

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
    core::PipelineOptions kernels = opts;
    kernels.compiled_kernels = false;
    EXPECT_NE(fp, pipeline_fingerprint(make_pipeline(kernels)));
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
    EXPECT_EQ(stim, stim_of(pipe.golden_cache_key(
                        filter::BehaviouralCut(core::paper_biquad()))));
    EXPECT_EQ(stim, stim_of(core::stimulus_trace_key(pipe.stimulus(), 256,
                                                     SampleMode::exact)));
}

TEST(JobResultCache, MissThenExactHit) {
    JobResultCache cache(4);
    EXPECT_FALSE(cache.lookup("k", 0, 10).has_value());
    EXPECT_EQ(cache.misses(), 1u);

    cache.insert("k", 0, make_range(0, 10));
    EXPECT_EQ(cache.size(), 1u);
    const auto hit = cache.lookup("k", 0, 10);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->first, 0u);
    ASSERT_EQ(hit->results->size(), 10u);
    EXPECT_EQ((*hit->results)[7].member_id, 7u);
    EXPECT_EQ(cache.hits(), 1u);
    // A different key, or the same key past the stored range, still misses.
    EXPECT_FALSE(cache.lookup("other", 0, 10).has_value());
    EXPECT_FALSE(cache.lookup("k", 5, 6).has_value());
}

TEST(JobResultCache, CoveringRangeServesSubsets) {
    JobResultCache cache(4);
    cache.insert("k", 10, make_range(10, 20)); // members [10, 30)
    const std::vector<std::pair<std::size_t, std::size_t>> ranges = {
        {10, 20}, {10, 5}, {25, 5}, {14, 3}, {12, 0}};
    for (const auto& [first, count] : ranges) {
        const auto hit = cache.lookup("k", first, count);
        ASSERT_TRUE(hit.has_value()) << first << "+" << count;
        // The caller indexes results[(first - hit->first) + i].
        ASSERT_LE(hit->first, first);
        for (std::size_t i = 0; i < count; ++i)
            EXPECT_EQ((*hit->results)[first - hit->first + i].member_id,
                      first + i);
    }
    // Ranges that poke outside the stored span are misses, not clamps.
    EXPECT_FALSE(cache.lookup("k", 5, 10).has_value());
    EXPECT_FALSE(cache.lookup("k", 25, 10).has_value());
    EXPECT_FALSE(cache.lookup("k", 30, 1).has_value());
}

TEST(JobResultCache, SupersetInsertAbsorbsContainedEntries) {
    JobResultCache cache(8);
    cache.insert("k", 0, make_range(0, 5));
    cache.insert("k", 20, make_range(20, 5));
    EXPECT_EQ(cache.size(), 2u);
    // A superset of the first entry replaces it; the disjoint one stays.
    cache.insert("k", 0, make_range(0, 10));
    EXPECT_EQ(cache.size(), 2u);
    const auto hit = cache.lookup("k", 0, 10);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->results->size(), 10u);
    // Inserting a range an existing entry already covers is a no-op.
    cache.insert("k", 2, make_range(2, 3));
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_TRUE(cache.lookup("k", 0, 10).has_value());
}

TEST(JobResultCache, LruEvictionAndRecencyRefresh) {
    JobResultCache cache(2);
    cache.insert("a", 0, make_range(0, 1));
    cache.insert("b", 0, make_range(0, 1));
    // Touch "a" so "b" is the LRU victim when "c" arrives.
    EXPECT_TRUE(cache.lookup("a", 0, 1).has_value());
    cache.insert("c", 0, make_range(0, 1));
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_TRUE(cache.lookup("a", 0, 1).has_value());
    EXPECT_TRUE(cache.lookup("c", 0, 1).has_value());
    EXPECT_FALSE(cache.lookup("b", 0, 1).has_value());
    // A hit's payload outlives eviction of its entry (draining streams).
    const auto held = cache.lookup("a", 0, 1);
    cache.set_capacity(1);
    EXPECT_EQ(cache.size(), 1u);
    ASSERT_TRUE(held.has_value());
    EXPECT_EQ((*held->results)[0].member_id, 0u);
}

TEST(JobResultCache, ClearResetsEntriesAndCounters) {
    JobResultCache cache(4);
    cache.insert("k", 0, make_range(0, 2));
    (void)cache.lookup("k", 0, 2);
    (void)cache.lookup("nope", 0, 1);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
    EXPECT_EQ(cache.capacity(), 4u);
    EXPECT_FALSE(cache.lookup("k", 0, 2).has_value());
}

} // namespace
} // namespace xysig::server
