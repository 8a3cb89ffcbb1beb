#include "kernels/compiled_waveform.h"

#include <cmath>

#include "common/contracts.h"
#include "common/math_util.h"
#include "kernels/vecmath.h"

namespace xysig::kernels {

std::optional<CompiledWaveform> CompiledWaveform::compile(const Waveform& w) {
    CompiledWaveform out;
    if (compile_into(w, out))
        return out;
    return std::nullopt;
}

bool CompiledWaveform::compile_into(const Waveform& w, CompiledWaveform& out) {
    out.amplitude_.clear();
    out.omega_.clear();
    out.phase_.clear();
    if (const auto* dc = dynamic_cast<const DcWaveform*>(&w)) {
        out.offset_ = dc->level();
        return true;
    }
    if (const auto* sine = dynamic_cast<const SineWaveform*>(&w)) {
        out.offset_ = sine->offset();
        out.amplitude_.push_back(sine->amplitude());
        // kTwoPi * f pre-multiplied: SineWaveform::value evaluates the sine
        // argument as (kTwoPi * f) * t + phase, so folding the first product
        // keeps the rounding identical.
        out.omega_.push_back(kTwoPi * sine->frequency());
        out.phase_.push_back(sine->phase());
        return true;
    }
    if (const auto* multi = dynamic_cast<const MultitoneWaveform*>(&w)) {
        out.offset_ = multi->offset();
        const auto& tones = multi->tones();
        out.amplitude_.reserve(tones.size());
        out.omega_.reserve(tones.size());
        out.phase_.reserve(tones.size());
        for (const Tone& tone : tones) {
            out.amplitude_.push_back(tone.amplitude);
            out.omega_.push_back(kTwoPi * tone.frequency_hz);
            out.phase_.push_back(tone.phase_rad);
        }
        return true;
    }
    return false;
}

void CompiledWaveform::sample_into(double t0, double duration, std::size_t n,
                                   std::vector<double>& buffer,
                                   SampleMode mode) const {
    XYSIG_EXPECTS(duration > 0.0);
    XYSIG_EXPECTS(n >= 2);
    const double dt = duration / static_cast<double>(n);
    buffer.resize(n);
    double* const out = buffer.data();

    const std::size_t n_tones = amplitude_.size();

    if (mode == SampleMode::fast_math && n_tones > 0) {
        const vecmath::ToneTable table{amplitude_.data(), omega_.data(),
                                       phase_.data(), n_tones, offset_};
        if (vecmath::tones_in_range(table, t0, dt, n)) {
            // Same argument arithmetic and accumulation order as the loop
            // below; only the sine evaluation differs (see vecmath.h for
            // the 2-ULP contract). Out-of-range arguments fall through to
            // the exact path so the mode never changes the domain.
            vecmath::sample_multitone(table, t0, dt, n, out);
            return;
        }
    }
    const double off = offset_;
    const double* const amp = amplitude_.data();
    const double* const omg = omega_.data();
    const double* const ph = phase_.data();

    // One fused pass: each sample accumulates offset then the tones in
    // declaration order — the exact addition sequence of the virtual
    // per-sample path, so the result is bit-identical — with the flat
    // coefficient arrays streaming from L1 instead of a virtual dispatch
    // plus tone-vector walk per sample.
#pragma omp simd
    for (std::size_t i = 0; i < n; ++i) {
        const double t = t0 + static_cast<double>(i) * dt;
        double acc = off;
        for (std::size_t k = 0; k < n_tones; ++k)
            acc += amp[k] * std::sin(omg[k] * t + ph[k]);
        out[i] = acc;
    }
}

} // namespace xysig::kernels
