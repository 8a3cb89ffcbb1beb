#ifndef XYSIG_SUPPORT_FFT_H
#define XYSIG_SUPPORT_FFT_H

/// \file fft.h
/// Radix-2 FFT and single-bin Goertzel evaluation.
///
/// Used to verify the Biquad filter's measured frequency response against
/// the analytic transfer function and to extract tone magnitudes/phases from
/// simulated CUT outputs.

#include <complex>
#include <vector>

namespace xysig {

/// In-place iterative radix-2 Cooley-Tukey FFT. data.size() must be a power
/// of two. inverse=true applies the conjugate transform scaled by 1/N.
void fft_radix2(std::vector<std::complex<double>>& data, bool inverse = false);

/// Next power of two >= n (n >= 1).
[[nodiscard]] std::size_t next_pow2(std::size_t n);

/// Complex amplitude of the component exp(j*2*pi*f*t) in a real signal
/// sampled at rate fs (Goertzel-style correlation against an exact
/// frequency, so f need not fall on an FFT bin). The returned value A
/// satisfies: the signal contains A.real()*cos + (-A.imag())*sin... more
/// usefully, for input a*sin(2*pi*f*t + phi) the result has magnitude a and
/// argument (phi - pi/2).
[[nodiscard]] std::complex<double> tone_component(const std::vector<double>& samples,
                                                  double fs, double f);

/// Magnitude spectrum of a real signal at the FFT bin frequencies k*fs/N,
/// k = 0..N/2, scaled so a full-scale sine of amplitude a reads a at its bin.
[[nodiscard]] std::vector<double> magnitude_spectrum(const std::vector<double>& samples);

} // namespace xysig

#endif // XYSIG_SUPPORT_FFT_H
