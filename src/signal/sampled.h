#ifndef XYSIG_SIGNAL_SAMPLED_H
#define XYSIG_SIGNAL_SAMPLED_H

/// \file sampled.h
/// Uniformly sampled signals — the discrete representation flowing between
/// the CUT simulation, the monitor bank and the capture unit.

#include <span>
#include <vector>

#include "signal/sample_mode.h"
#include "signal/waveform.h"

namespace xysig {
class Rng;

/// A uniformly sampled real signal: samples[i] is the value at
/// t = start_time + i * dt.
class SampledSignal {
public:
    SampledSignal() = default;

    /// Takes ownership of the samples. dt > 0.
    SampledSignal(double start_time, double dt, std::vector<double> samples);

    /// Samples a waveform on [t0, t0 + duration) with n samples (endpoint
    /// excluded so that consecutive periods concatenate seamlessly).
    static SampledSignal from_waveform(const Waveform& w, double t0,
                                       double duration, std::size_t n);

    /// Same sampling arithmetic as from_waveform, but written into an
    /// existing buffer (resized to n). Batch evaluation uses this to reuse
    /// per-thread trace buffers instead of reallocating them per sample.
    ///
    /// mode selects the sine evaluation for closed-form waveforms (see
    /// SampleMode). Waveforms that do not compile into a tone table
    /// (PWL, pulse, custom) always take the exact virtual loop — for
    /// them fast_math is a no-op by contract.
    static void sample_waveform_into(const Waveform& w, double t0,
                                     double duration, std::size_t n,
                                     std::vector<double>& buffer,
                                     SampleMode mode = SampleMode::exact);

    [[nodiscard]] std::size_t size() const noexcept { return samples_.size(); }
    [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }
    [[nodiscard]] double dt() const noexcept { return dt_; }
    [[nodiscard]] double start_time() const noexcept { return start_time_; }
    [[nodiscard]] double duration() const noexcept {
        return dt_ * static_cast<double>(samples_.size());
    }
    [[nodiscard]] double time_at(std::size_t i) const;
    [[nodiscard]] double operator[](std::size_t i) const;
    [[nodiscard]] std::span<const double> samples() const noexcept { return samples_; }

    [[nodiscard]] double min() const;
    [[nodiscard]] double max() const;

    /// Adds white Gaussian noise of the given sigma in place. The paper's
    /// robustness study uses null-mean noise with 3*sigma = 15 mV.
    void add_white_noise(Rng& rng, double sigma);

private:
    double start_time_ = 0.0;
    double dt_ = 1.0;
    std::vector<double> samples_;
};

/// An (x(t), y(t)) pair sampled on a common time base — the Lissajous
/// trajectory observed by the monitor bank.
class XyTrace {
public:
    /// Both signals must share start time, dt and length.
    XyTrace(SampledSignal x, SampledSignal y);

    [[nodiscard]] const SampledSignal& x() const noexcept { return x_; }
    [[nodiscard]] const SampledSignal& y() const noexcept { return y_; }
    [[nodiscard]] std::size_t size() const noexcept { return x_.size(); }
    [[nodiscard]] double dt() const noexcept { return x_.dt(); }
    [[nodiscard]] double start_time() const noexcept { return x_.start_time(); }
    [[nodiscard]] double time_at(std::size_t i) const { return x_.time_at(i); }

    /// Adds independent white noise to both channels (paper Section IV-C).
    void add_white_noise(Rng& rng, double sigma);

private:
    SampledSignal x_;
    SampledSignal y_;
};

} // namespace xysig

#endif // XYSIG_SIGNAL_SAMPLED_H
