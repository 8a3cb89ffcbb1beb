#include "signal/sampled.h"

#include <algorithm>

#include "common/contracts.h"
#include "common/rng.h"
#include "kernels/compiled_waveform.h"

namespace xysig {

SampledSignal::SampledSignal(double start_time, double dt, std::vector<double> samples)
    : start_time_(start_time), dt_(dt), samples_(std::move(samples)) {
    XYSIG_EXPECTS(dt > 0.0);
}

SampledSignal SampledSignal::from_waveform(const Waveform& w, double t0,
                                           double duration, std::size_t n) {
    XYSIG_EXPECTS(duration > 0.0);
    XYSIG_EXPECTS(n >= 2);
    const double dt = duration / static_cast<double>(n);
    std::vector<double> samples;
    sample_waveform_into(w, t0, duration, n, samples);
    return SampledSignal(t0, dt, std::move(samples));
}

void SampledSignal::sample_waveform_into(const Waveform& w, double t0,
                                         double duration, std::size_t n,
                                         std::vector<double>& buffer,
                                         SampleMode mode) {
    XYSIG_EXPECTS(duration > 0.0);
    XYSIG_EXPECTS(n >= 2);
    // Closed-form waveforms sample through the flattened tone-table kernel
    // (fused branch-free pass, no per-sample virtual dispatch); in exact
    // mode the values are bit-identical to the loop below, which remains
    // the path for PWL/pulse/custom waveforms (those ignore `mode` — the
    // fast_math polynomial only ever replaces tone-table sines). The
    // per-thread scratch keeps the batch engine's two recompilations per
    // CUT evaluation allocation-free.
    thread_local kernels::CompiledWaveform compiled;
    if (kernels::CompiledWaveform::compile_into(w, compiled)) {
        compiled.sample_into(t0, duration, n, buffer, mode);
        return;
    }
    const double dt = duration / static_cast<double>(n);
    buffer.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        buffer[i] = w.value(t0 + static_cast<double>(i) * dt);
}

double SampledSignal::time_at(std::size_t i) const {
    XYSIG_EXPECTS(i < samples_.size());
    return start_time_ + static_cast<double>(i) * dt_;
}

double SampledSignal::operator[](std::size_t i) const {
    XYSIG_EXPECTS(i < samples_.size());
    return samples_[i];
}

double SampledSignal::min() const {
    XYSIG_EXPECTS(!samples_.empty());
    return *std::min_element(samples_.begin(), samples_.end());
}

double SampledSignal::max() const {
    XYSIG_EXPECTS(!samples_.empty());
    return *std::max_element(samples_.begin(), samples_.end());
}

void SampledSignal::add_white_noise(Rng& rng, double sigma) {
    XYSIG_EXPECTS(sigma >= 0.0);
    for (double& s : samples_)
        s += rng.normal(0.0, sigma);
}

XyTrace::XyTrace(SampledSignal x, SampledSignal y) : x_(std::move(x)), y_(std::move(y)) {
    XYSIG_EXPECTS(x_.size() == y_.size());
    XYSIG_EXPECTS(x_.size() >= 2);
    // xylint: exact-compare(contract: both channels are sampled on the identical grid, bit for bit)
    XYSIG_EXPECTS(x_.dt() == y_.dt());
    // xylint: exact-compare(contract: both channels start at the identical instant, bit for bit)
    XYSIG_EXPECTS(x_.start_time() == y_.start_time());
}

void XyTrace::add_white_noise(Rng& rng, double sigma) {
    x_.add_white_noise(rng, sigma);
    y_.add_white_noise(rng, sigma);
}

} // namespace xysig
