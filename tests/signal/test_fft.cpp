// Unit tests for the FFT and tone-extraction helpers.

#include "support/fft.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/math_util.h"

namespace xysig {
namespace {

TEST(NextPow2, Basics) {
    EXPECT_EQ(next_pow2(1), 1u);
    EXPECT_EQ(next_pow2(2), 2u);
    EXPECT_EQ(next_pow2(3), 4u);
    EXPECT_EQ(next_pow2(1000), 1024u);
}

TEST(Fft, RoundTripRecoversSignal) {
    std::vector<std::complex<double>> data(64);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = {std::sin(0.3 * static_cast<double>(i)),
                   std::cos(0.7 * static_cast<double>(i))};
    const auto original = data;
    fft_radix2(data);
    fft_radix2(data, /*inverse=*/true);
    for (std::size_t i = 0; i < data.size(); ++i) {
        EXPECT_NEAR(data[i].real(), original[i].real(), 1e-10);
        EXPECT_NEAR(data[i].imag(), original[i].imag(), 1e-10);
    }
}

TEST(Fft, DeltaTransformsToFlatSpectrum) {
    std::vector<std::complex<double>> data(8, {0.0, 0.0});
    data[0] = {1.0, 0.0};
    fft_radix2(data);
    for (const auto& c : data) {
        EXPECT_NEAR(c.real(), 1.0, 1e-12);
        EXPECT_NEAR(c.imag(), 0.0, 1e-12);
    }
}

TEST(Fft, NonPowerOfTwoIsContractViolation) {
    std::vector<std::complex<double>> data(12);
    EXPECT_THROW(fft_radix2(data), ContractError);
}

TEST(Fft, ParsevalHolds) {
    std::vector<std::complex<double>> data(128);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = {std::cos(0.1 * static_cast<double>(i) * static_cast<double>(i)), 0.0};
    double time_energy = 0.0;
    for (const auto& c : data)
        time_energy += std::norm(c);
    fft_radix2(data);
    double freq_energy = 0.0;
    for (const auto& c : data)
        freq_energy += std::norm(c);
    EXPECT_NEAR(freq_energy, time_energy * static_cast<double>(data.size()),
                1e-6 * freq_energy);
}

TEST(ToneComponent, RecoversAmplitudeAndPhase) {
    const double fs = 1e6;
    const double f = 12.5e3; // exactly 25 cycles in 2000 samples
    const double amp = 0.37;
    const double phase = 0.9;
    std::vector<double> samples(2000);
    for (std::size_t i = 0; i < samples.size(); ++i)
        samples[i] = amp * std::sin(kTwoPi * f * static_cast<double>(i) / fs + phase);
    const auto c = tone_component(samples, fs, f);
    EXPECT_NEAR(std::abs(c), amp, 1e-9);
    EXPECT_NEAR(std::arg(c), phase - kPi / 2.0, 1e-9);
}

TEST(ToneComponent, DcComponent) {
    std::vector<double> samples(100, 0.55);
    const auto c = tone_component(samples, 1e3, 0.0);
    EXPECT_NEAR(c.real(), 0.55, 1e-12);
    EXPECT_NEAR(c.imag(), 0.0, 1e-12);
}

TEST(ToneComponent, RejectsOutOfBandFrequency) {
    std::vector<double> samples(16, 0.0);
    EXPECT_THROW((void)tone_component(samples, 1000.0, 600.0), ContractError);
}

TEST(MagnitudeSpectrum, PeakAtToneBin) {
    const std::size_t n = 1024;
    const double fs = 1024.0;
    const double f = 128.0; // bin 128 exactly
    std::vector<double> samples(n);
    for (std::size_t i = 0; i < n; ++i)
        samples[i] = 0.8 * std::sin(kTwoPi * f * static_cast<double>(i) / fs);
    const auto mags = magnitude_spectrum(samples);
    ASSERT_EQ(mags.size(), n / 2 + 1);
    EXPECT_NEAR(mags[128], 0.8, 1e-9);
    EXPECT_NEAR(mags[64], 0.0, 1e-9);
}

TEST(MagnitudeSpectrum, DcLevelAtBinZero) {
    std::vector<double> samples(256, 1.5);
    const auto mags = magnitude_spectrum(samples);
    EXPECT_NEAR(mags[0], 1.5, 1e-9);
}

} // namespace
} // namespace xysig
