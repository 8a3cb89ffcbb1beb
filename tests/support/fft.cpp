#include "support/fft.h"

#include <cmath>

#include "common/contracts.h"
#include "common/math_util.h"

namespace xysig {

std::size_t next_pow2(std::size_t n) {
    XYSIG_EXPECTS(n >= 1);
    std::size_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

void fft_radix2(std::vector<std::complex<double>>& data, bool inverse) {
    const std::size_t n = data.size();
    XYSIG_EXPECTS(n >= 1 && (n & (n - 1)) == 0);
    if (n == 1)
        return;

    // Bit-reversal permutation.
    for (std::size_t i = 1, j = 0; i < n; ++i) {
        std::size_t bit = n >> 1;
        for (; j & bit; bit >>= 1)
            j ^= bit;
        j ^= bit;
        if (i < j)
            std::swap(data[i], data[j]);
    }

    for (std::size_t len = 2; len <= n; len <<= 1) {
        const double angle = (inverse ? 1.0 : -1.0) * kTwoPi / static_cast<double>(len);
        const std::complex<double> wlen(std::cos(angle), std::sin(angle));
        for (std::size_t i = 0; i < n; i += len) {
            std::complex<double> w(1.0, 0.0);
            for (std::size_t k = 0; k < len / 2; ++k) {
                const std::complex<double> u = data[i + k];
                const std::complex<double> v = data[i + k + len / 2] * w;
                data[i + k] = u + v;
                data[i + k + len / 2] = u - v;
                w *= wlen;
            }
        }
    }

    if (inverse) {
        const double scale = 1.0 / static_cast<double>(n);
        for (auto& c : data)
            c *= scale;
    }
}

std::complex<double> tone_component(const std::vector<double>& samples, double fs,
                                    double f) {
    XYSIG_EXPECTS(!samples.empty());
    XYSIG_EXPECTS(fs > 0.0);
    XYSIG_EXPECTS(f >= 0.0 && f < fs / 2.0);
    // Correlate with exp(-j w t); scale 2/N recovers the amplitude of a real
    // sinusoid (1/N for the DC component).
    std::complex<double> acc(0.0, 0.0);
    const double w = kTwoPi * f / fs;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const double ph = w * static_cast<double>(i);
        acc += samples[i] * std::complex<double>(std::cos(ph), -std::sin(ph));
    }
    // xylint: exact-compare(DC bin selection; f is exactly 0.0 only when the caller asks for DC)
    const double scale = (f == 0.0 ? 1.0 : 2.0) / static_cast<double>(samples.size());
    return acc * scale;
}

std::vector<double> magnitude_spectrum(const std::vector<double>& samples) {
    XYSIG_EXPECTS(!samples.empty());
    const std::size_t n = next_pow2(samples.size());
    std::vector<std::complex<double>> buf(n, {0.0, 0.0});
    for (std::size_t i = 0; i < samples.size(); ++i)
        buf[i] = samples[i];
    fft_radix2(buf);
    std::vector<double> mags(n / 2 + 1);
    const double scale = 2.0 / static_cast<double>(samples.size());
    for (std::size_t k = 0; k <= n / 2; ++k) {
        const double s = (k == 0 || k == n / 2) ? scale / 2.0 : scale;
        mags[k] = std::abs(buf[k]) * s;
    }
    return mags;
}

} // namespace xysig
