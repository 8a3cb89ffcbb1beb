#ifndef XYSIG_KERNELS_COMPILED_WAVEFORM_H
#define XYSIG_KERNELS_COMPILED_WAVEFORM_H

/// \file compiled_waveform.h
/// Devirtualised stimulus sampling kernel.
///
/// The virtual sampling path pays one Waveform::value dispatch per sample
/// and walks the tone vector through a pointer each time. CompiledWaveform
/// flattens the closed-form waveforms (DC, sine, multitone) into a
/// struct-of-arrays tone table — amplitude[k], omega[k] = 2*pi*f_k,
/// phase[k] — and samples in one fused, branch-free pass over the time
/// axis with the flat coefficient arrays streaming from L1. The
/// accumulation order (offset, then tones in declaration order) matches
/// MultitoneWaveform::value exactly, so results are bit-identical to the
/// virtual path.
///
/// Waveforms that are not closed-form sums of sines (PWL, pulse, ...) do
/// not compile; callers fall back to the virtual per-sample loop.

#include <cstddef>
#include <optional>
#include <vector>

#include "signal/sample_mode.h"
#include "signal/waveform.h"

namespace xysig::kernels {

class CompiledWaveform {
public:
    /// Flattens a DcWaveform, SineWaveform or MultitoneWaveform; nullopt
    /// for any other waveform type (the caller keeps the virtual loop).
    [[nodiscard]] static std::optional<CompiledWaveform> compile(const Waveform& w);

    /// Allocation-reusing variant for hot loops: recompiles w into `out`,
    /// keeping the tone-table capacity from previous calls. Returns false
    /// (leaving `out` unspecified) for non-compilable waveforms. The batch
    /// path recompiles two waveforms per CUT evaluation, so this keeps the
    /// per-evaluation heap traffic at zero.
    [[nodiscard]] static bool compile_into(const Waveform& w, CompiledWaveform& out);

    /// Samples [t0, t0 + duration) with n samples (endpoint excluded) into
    /// buffer (resized to n). Same sampling arithmetic as
    /// SampledSignal::sample_waveform_into: t_i = t0 + i * (duration / n).
    ///
    /// SampleMode::exact (the default) keeps the libm path, bit-identical
    /// to the virtual loop. SampleMode::fast_math evaluates the sines
    /// through vecmath::sample_multitone — within 2 ULP per tone of the
    /// exact value, bit-identical across ISAs — falling back to the exact
    /// path when an argument would leave vecmath's documented range (and
    /// for pure-DC tables, where both paths agree bit for bit anyway).
    void sample_into(double t0, double duration, std::size_t n,
                     std::vector<double>& buffer,
                     SampleMode mode = SampleMode::exact) const;

private:
    double offset_ = 0.0;
    // Struct-of-arrays tone table (kept separate so each per-tone pass
    // streams one coefficient set through registers).
    std::vector<double> amplitude_;
    std::vector<double> omega_; ///< 2*pi*frequency, pre-multiplied
    std::vector<double> phase_;
};

} // namespace xysig::kernels

#endif // XYSIG_KERNELS_COMPILED_WAVEFORM_H
