// Unit tests for sampled signals and X-Y traces.

#include "signal/sampled.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "common/statistics.h"
#include "signal/waveform.h"

namespace xysig {
namespace {

TEST(SampledSignal, FromWaveformSamplesCorrectTimes) {
    const SineWaveform w(0.0, 1.0, 1.0);
    const auto s = SampledSignal::from_waveform(w, 0.0, 1.0, 100);
    EXPECT_EQ(s.size(), 100u);
    EXPECT_DOUBLE_EQ(s.dt(), 0.01);
    EXPECT_NEAR(s[25], 1.0, 1e-12); // quarter period
    EXPECT_NEAR(s.time_at(50), 0.5, 1e-12);
}

TEST(SampledSignal, EndpointExcludedSoPeriodsConcatenate) {
    const SineWaveform w(0.0, 1.0, 1.0);
    const auto s = SampledSignal::from_waveform(w, 0.0, 1.0, 10);
    // Last sample is at t = 0.9, not t = 1.0.
    EXPECT_NEAR(s.time_at(9), 0.9, 1e-12);
}

TEST(SampledSignal, MinMax) {
    const SineWaveform w(0.5, 0.3, 1.0);
    const auto s = SampledSignal::from_waveform(w, 0.0, 1.0, 1000);
    EXPECT_NEAR(s.min(), 0.2, 1e-4);
    EXPECT_NEAR(s.max(), 0.8, 1e-4);
}

TEST(SampledSignal, WhiteNoiseHasRequestedSigma) {
    SampledSignal s(0.0, 1e-6, std::vector<double>(50000, 0.0));
    Rng rng(1234);
    s.add_white_noise(rng, 0.005);
    EXPECT_NEAR(stddev(s.samples()), 0.005, 3e-4);
    EXPECT_NEAR(mean(s.samples()), 0.0, 3e-4);
}

TEST(SampledSignal, ZeroNoiseIsNoOp) {
    SampledSignal s(0.0, 1.0, {1.0, 2.0});
    Rng rng(1);
    s.add_white_noise(rng, 0.0);
    EXPECT_DOUBLE_EQ(s[0], 1.0);
    EXPECT_DOUBLE_EQ(s[1], 2.0);
}

TEST(XyTrace, RequiresMatchingTimeBase) {
    SampledSignal x(0.0, 1.0, {0.0, 1.0, 2.0});
    SampledSignal y_ok(0.0, 1.0, {5.0, 6.0, 7.0});
    EXPECT_NO_THROW(XyTrace(x, y_ok));
    SampledSignal y_len(0.0, 1.0, {5.0, 6.0});
    EXPECT_THROW(XyTrace(x, y_len), ContractError);
    SampledSignal y_dt(0.0, 0.5, {5.0, 6.0, 7.0});
    EXPECT_THROW(XyTrace(x, y_dt), ContractError);
}

TEST(XyTrace, NoiseAffectsBothChannels) {
    SampledSignal x(0.0, 1.0, std::vector<double>(1000, 0.0));
    SampledSignal y(0.0, 1.0, std::vector<double>(1000, 0.0));
    XyTrace tr(std::move(x), std::move(y));
    Rng rng(77);
    tr.add_white_noise(rng, 0.01);
    EXPECT_GT(stddev(tr.x().samples()), 0.005);
    EXPECT_GT(stddev(tr.y().samples()), 0.005);
    // Channels get independent draws.
    bool differ = false;
    for (std::size_t i = 0; i < tr.size() && !differ; ++i)
        differ = tr.x()[i] != tr.y()[i];
    EXPECT_TRUE(differ);
}

/// A waveform the tone-table compiler cannot see through — the "custom"
/// case of the fast_math no-op contract.
class StaircaseWaveform final : public Waveform {
public:
    [[nodiscard]] double value(double t) const override {
        return std::floor(t * 10.0) * 0.125;
    }
    [[nodiscard]] double period() const override { return 0.0; }
    [[nodiscard]] std::unique_ptr<Waveform> clone() const override {
        return std::make_unique<StaircaseWaveform>(*this);
    }
};

TEST(SampleWaveformInto, FastMathIsANoOpForFallbackWaveforms) {
    // Waveforms without a tone-table form (PWL, pulse, custom) must ignore
    // the sampling mode entirely: fast_math output is bit-for-bit the exact
    // output. A regression here would silently put approximate samples on
    // the exact path's non-closed-form waveforms.
    const PwlWaveform pwl({{0.0, 0.0}, {0.4, 1.0}, {1.0, -0.5}, {2.0, 0.25}});
    const PulseWaveform pulse(0.0, 1.0, 0.1, 0.05, 0.07, 0.4, 1.0);
    const StaircaseWaveform custom;
    for (const Waveform* w : {static_cast<const Waveform*>(&pwl),
                              static_cast<const Waveform*>(&pulse),
                              static_cast<const Waveform*>(&custom)}) {
        std::vector<double> exact_buf;
        std::vector<double> fast_buf;
        SampledSignal::sample_waveform_into(*w, 0.125, 2.0, 333, exact_buf,
                                            SampleMode::exact);
        SampledSignal::sample_waveform_into(*w, 0.125, 2.0, 333, fast_buf,
                                            SampleMode::fast_math);
        ASSERT_EQ(exact_buf.size(), 333u);
        ASSERT_EQ(fast_buf.size(), 333u);
        for (std::size_t i = 0; i < exact_buf.size(); ++i) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(fast_buf[i]),
                      std::bit_cast<std::uint64_t>(exact_buf[i]))
                << "sample " << i;
            // And both equal the virtual per-sample loop.
            const double t = 0.125 + static_cast<double>(i) * (2.0 / 333.0);
            ASSERT_EQ(exact_buf[i], w->value(t)) << "sample " << i;
        }
    }
}

TEST(SampleWaveformInto, DefaultModeArgumentIsExact) {
    // Callers that never heard of SampleMode keep the exact path.
    const SineWaveform sine(0.4, 0.25, 5e3, 1.234);
    std::vector<double> default_buf;
    std::vector<double> exact_buf;
    SampledSignal::sample_waveform_into(sine, 0.0, 4e-4, 256, default_buf);
    SampledSignal::sample_waveform_into(sine, 0.0, 4e-4, 256, exact_buf,
                                        SampleMode::exact);
    for (std::size_t i = 0; i < default_buf.size(); ++i)
        ASSERT_EQ(std::bit_cast<std::uint64_t>(default_buf[i]),
                  std::bit_cast<std::uint64_t>(exact_buf[i]))
            << "sample " << i;
}

} // namespace
} // namespace xysig
