// Noise detectability study (paper Section IV-C).

#include <vector>

#include <gtest/gtest.h>

#include "core/detectability.h"
#include "core/paper_setup.h"
#include "monitor/table1.h"
#include "support/pin.h"

namespace xysig::core {
namespace {

SignaturePipeline make_pipeline() {
    PipelineOptions opts;
    opts.samples_per_period = 4096; // noise MC is expensive; keep tests quick
    return SignaturePipeline(monitor::build_table1_bank(), paper_stimulus(), opts);
}

TEST(Detectability, OnePercentDetectedUnderPaperNoise) {
    // The paper's claim: 3*sigma = 15 mV white noise, 1% f0 deviation still
    // detected.
    SignaturePipeline pipe = make_pipeline();
    DetectabilityOptions opts;
    opts.trials = 15;
    opts.noise_sigma = 0.005;
    opts.periods_averaged = 16;
    const std::vector<double> devs = {1.0};
    const auto study = noise_detectability(pipe, paper_biquad(), devs, opts, 2024);
    ASSERT_EQ(study.points.size(), 1u);
    EXPECT_TRUE(study.points[0].detected)
        << "rate=" << study.points[0].detection_rate;
}

TEST(Detectability, LargerDeviationsSeparateFurther) {
    SignaturePipeline pipe = make_pipeline();
    DetectabilityOptions opts;
    opts.trials = 8;
    opts.noise_sigma = 0.005;
    opts.periods_averaged = 4;
    const std::vector<double> devs = {1.0, 5.0};
    const auto study = noise_detectability(pipe, paper_biquad(), devs, opts, 7);
    EXPECT_GT(study.points[1].ndf_mean, study.points[0].ndf_mean);
    EXPECT_GT(study.points[1].ndf_min, study.threshold);
}

TEST(Detectability, NoiseFloorIsSmallAndPositive) {
    SignaturePipeline pipe = make_pipeline();
    DetectabilityOptions opts;
    opts.trials = 8;
    opts.noise_sigma = 0.005;
    opts.periods_averaged = 2;
    const std::vector<double> devs = {2.0};
    const auto study = noise_detectability(pipe, paper_biquad(), devs, opts, 99);
    EXPECT_GT(study.noise_floor_mean, 0.0);
    EXPECT_LT(study.noise_floor_mean, 0.04);
    EXPECT_GE(study.threshold, study.noise_floor_mean);
}

TEST(Detectability, SmallStudyIsPinned) {
    // Threshold, floor and per-deviation statistics of a cheap study, bit
    // for bit: the percentile, the floor-trial count and the decision rate
    // all feed these.
    PipelineOptions popts;
    popts.samples_per_period = 256;
    SignaturePipeline pipe(monitor::build_table1_bank(), paper_stimulus(), popts);
    DetectabilityOptions opts;
    opts.trials = 4;
    opts.noise_sigma = 0.005;
    opts.periods_averaged = 2;
    const std::vector<double> devs = {1.0, 5.0};
    const auto study = noise_detectability(pipe, paper_biquad(), devs, opts, 2024);
    EXPECT_EQ(bits_of(study.threshold), 0x3fa0dc28f5c28f50ULL);
    EXPECT_EQ(bits_of(study.noise_floor_mean), 0x3f973ffffffffff7ULL);
    ASSERT_EQ(study.points.size(), 2u);
    EXPECT_EQ(bits_of(study.points[0].ndf_mean), 0x3f9a7ffffffffffaULL);
    EXPECT_EQ(bits_of(study.points[0].detection_rate), bits_of(0.25));
    EXPECT_FALSE(study.points[0].detected);
    EXPECT_EQ(bits_of(study.points[1].ndf_mean), 0x3fadbffffffffffcULL);
    EXPECT_EQ(bits_of(study.points[1].detection_rate), bits_of(1.0));
    EXPECT_TRUE(study.points[1].detected);
}

TEST(Detectability, MinimumDetectableReported) {
    DetectabilityStudy study;
    study.points = {{0.5, 0, 0, 0, 0.5, false},
                    {1.0, 0, 0, 0, 1.0, true},
                    {-2.0, 0, 0, 0, 1.0, true}};
    EXPECT_DOUBLE_EQ(study.minimum_detectable(), 1.0);
}

TEST(Detectability, DeterministicInSeed) {
    SignaturePipeline pipe = make_pipeline();
    DetectabilityOptions opts;
    opts.trials = 5;
    opts.periods_averaged = 2;
    const std::vector<double> devs = {1.0};
    const auto a = noise_detectability(pipe, paper_biquad(), devs, opts, 31);
    const auto b = noise_detectability(pipe, paper_biquad(), devs, opts, 31);
    EXPECT_DOUBLE_EQ(a.threshold, b.threshold);
    EXPECT_DOUBLE_EQ(a.points[0].ndf_mean, b.points[0].ndf_mean);
}

} // namespace
} // namespace xysig::core
