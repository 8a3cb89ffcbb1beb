#ifndef XYSIG_CORE_PIPELINE_H
#define XYSIG_CORE_PIPELINE_H

/// \file pipeline.h
/// End-to-end test pipeline: stimulus -> CUT -> (optional noise) -> monitor
/// bank -> (optional capture quantisation) -> chronogram -> NDF against the
/// golden signature. This is the paper's complete verification flow in one
/// object.
///
/// Every NDF and golden zones through one path: the compiled kernels
/// (kernels::CompiledMonitorBank::codes_into, then
/// Chronogram::encode_codes). trace()/chronogram()/capture() are the
/// virtual observation path (MonitorBank::code per sample) that figure
/// benches call and that tests hold the compiled path to, event for event.
///
/// The x groups' softplus pairs over the shared stimulus trace are
/// computed once per process per fingerprint() (XPairLaneCache) and bound
/// to compiled_bank(); a noise-free member whose x is the stimulus zones
/// straight from that trace and reads them, and any other x evaluates its
/// pairs (the kernel reads lanes only for bitwise-equal x).

#include <optional>

#include "capture/capture_unit.h"
#include "core/exact_lru_cache.h"
#include "core/ndf.h"
#include "filter/cut.h"
#include "kernels/compiled_monitor_bank.h"
#include "monitor/monitor_bank.h"

namespace xysig::core {

/// Process-wide x pair lanes keyed by SignaturePipeline::fingerprint():
/// bank, stimulus, samples per period and mode, exactly what the lanes
/// depend on. A Table I entry holds one lane pair, 2 x spp doubles
/// (128 KiB at 8192), so a TCP server's per-connection pipelines share
/// one entry instead of holding one table each.
using XPairLaneCache = ExactLruCache<kernels::CompiledMonitorBank::XPairLanes, 16>;

/// Knobs of the flow.
struct PipelineOptions {
    std::size_t samples_per_period = 8192; ///< CUT simulation resolution
    double noise_sigma = 0.0;              ///< white noise on x and y (V)
    bool quantise = false;                 ///< run through the Fig. 5 capture
    capture::CaptureOptions capture{};     ///< used when quantise is true
    /// Opt-in SIMD math (kernels/vecmath.h): tone-table sines on the
    /// NDF/golden path evaluate through the batched polynomial kernels —
    /// each sine within 2 ULP of the exact value (gate-enforced by
    /// bench_kernels and tests/kernels/test_vecmath_differential) — and
    /// the EKV comparators zone through the batched softplus kernel
    /// (within 4 ULP of correctly rounded).
    /// Results are bit-identical across ISAs but NOT to exact mode, so
    /// signatures computed under different modes must never be compared
    /// (golden cache keys and the trace cache key this flag for that
    /// reason). Scope: closed-form sampling and zoning on the
    /// scratch/NDF/golden path for cuts with x_is_stimulus(); SPICE/
    /// transient cuts are solver-driven and keep exact sampling, as do
    /// PWL/pulse/custom waveforms and the virtual observation APIs
    /// (trace()/chronogram()/capture()), which always stay exact.
    /// Default off: exact mode is the paper's contract.
    bool fast_math = false;
};

/// Reusable workspace for repeated NDF evaluations: the trace sample
/// buffers (the dominant allocations — up to two samples_per_period arrays
/// per call; a noise-free member whose x is the stimulus zones the shared
/// trace and fills only y) and the run-length event buffer are written in
/// place, so a batch of thousands of evaluations stops reallocating
/// traces. The small event list is still copied into each Chronogram (tens
/// of entries; a deliberate tradeoff to keep Chronogram immutable). One
/// instance must not be shared between threads concurrently (give each
/// worker its own, as BatchNdfEvaluator does).
class NdfScratch {
private:
    friend class SignaturePipeline;
    std::vector<double> xs_;
    std::vector<double> ys_;
    std::vector<unsigned> codes_; ///< per-sample zone codes
    std::vector<capture::CodeEvent> events_;
};

/// The flow, bound to a monitor bank and a stimulus.
class SignaturePipeline {
public:
    SignaturePipeline(monitor::MonitorBank bank, MultitoneWaveform stimulus,
                      PipelineOptions options = {});

    [[nodiscard]] const monitor::MonitorBank& bank() const noexcept { return bank_; }
    [[nodiscard]] const MultitoneWaveform& stimulus() const noexcept {
        return stimulus_;
    }
    [[nodiscard]] const PipelineOptions& options() const noexcept { return options_; }

    /// One steady-state period of the CUT's (x, y), with noise if configured
    /// (pass the RNG; no RNG means no noise even if noise_sigma > 0).
    [[nodiscard]] XyTrace trace(const filter::Cut& cut, Rng* noise_rng = nullptr) const;

    /// The observed chronogram of a CUT: ideal, or capture-quantised when
    /// options().quantise is set.
    [[nodiscard]] capture::Chronogram chronogram(const filter::Cut& cut,
                                                 Rng* noise_rng = nullptr) const;

    /// Raw captured signature of a CUT (regardless of options().quantise).
    [[nodiscard]] capture::CaptureResult capture(const filter::Cut& cut,
                                                 Rng* noise_rng = nullptr) const;

    /// Stores the golden signature (noise-free by definition). Runs the
    /// same scratch path as ndf_of (the compiled kernels) instead of the
    /// virtual chronogram path, and serves the ideal (unquantised)
    /// chronogram from the process-wide GoldenSignatureCache when the
    /// (bank, stimulus, sampling options, cut) tuple has an exact
    /// fingerprint — see golden_cache_key(). Cache hits are bit-identical
    /// to recomputation; quantisation (options().quantise) is applied after
    /// lookup because it depends on the capture options, which are
    /// deliberately outside the key.
    void set_golden(const filter::Cut& golden_cut);

    /// Exact fingerprint of everything this pipeline contributes to the
    /// bits of an ideal chronogram: `bank{…}|stim{…}|spp=…|fm=…` (monitor
    /// bank, stimulus, samples_per_period, fast_math). Noise and capture
    /// options are not in it. Never empty: the constructor compiles the
    /// bank, which admits only the boundary types that fingerprint
    /// themselves.
    [[nodiscard]] std::string fingerprint() const;

    /// The cache key set_golden files the ideal golden chronogram under:
    /// `cut{…}|` + fingerprint(). Empty when the cut has no cache_key()
    /// (a SpiceCut) — set_golden then computes without caching.
    [[nodiscard]] std::string golden_cache_key(const filter::Cut& cut) const;

    /// Flips options().fast_math in place (the sweep service applies the
    /// per-job wire flag through this). Changing the mode drops any stored
    /// golden — it was computed under the other mode and comparing across
    /// modes is exactly what the keying scheme exists to prevent — so
    /// callers must set_golden() again before evaluating.
    void set_fast_math(bool enable);

    /// The immutable per-(stimulus, spp, mode) trace shared through the
    /// process-wide StimulusTraceCache; every x_is_stimulus() member of a
    /// job reads this one buffer instead of re-sampling the stimulus.
    /// Exposed for tests and the bench probes.
    [[nodiscard]] const std::shared_ptr<const std::vector<double>>&
    stimulus_trace() const noexcept {
        return stimulus_trace_;
    }
    [[nodiscard]] bool has_golden() const noexcept { return golden_.has_value(); }
    [[nodiscard]] const capture::Chronogram& golden() const;

    /// NDF of a CUT against the stored golden signature.
    [[nodiscard]] double ndf_of(const filter::Cut& cut, Rng* noise_rng = nullptr) const;

    /// Scratch-buffer variant used by the batch engine: bit-identical to
    /// ndf_of(cut, noise_rng) but reuses the caller's buffers across calls.
    [[nodiscard]] double ndf_of(const filter::Cut& cut, NdfScratch& scratch,
                                Rng* noise_rng = nullptr) const;

    /// One member's full evaluation: the NDF plus the observed chronogram it
    /// was computed against (capture-quantised when options().quantise is
    /// set). The NDF is bit-identical to ndf_of(cut, scratch, noise_rng) —
    /// this is what the sweep service streams as (member_id, ndf, signature).
    struct CutEvaluation {
        double ndf;
        capture::Chronogram observed;
    };
    [[nodiscard]] CutEvaluation evaluate(const filter::Cut& cut,
                                         NdfScratch& scratch,
                                         Rng* noise_rng = nullptr) const;

    /// The lowered form of bank() every NDF and golden zones with.
    [[nodiscard]] const kernels::CompiledMonitorBank& compiled_bank() const noexcept {
        return compiled_bank_;
    }

private:
    /// Shared trunk of ndf_of(scratch) and set_golden: CUT response into the
    /// scratch buffers, optional noise, zoning through compiled_bank() and
    /// run-length encoding, returned as the ideal (unquantised) chronogram.
    [[nodiscard]] capture::Chronogram ideal_chronogram(const filter::Cut& cut,
                                                       NdfScratch& scratch,
                                                       Rng* noise_rng) const;

    [[nodiscard]] SampleMode sample_mode() const noexcept {
        return options_.fast_math ? SampleMode::fast_math : SampleMode::exact;
    }

    /// (Re)fetches stimulus_trace_ from the StimulusTraceCache for the
    /// current (stimulus, samples_per_period, mode), and the x pair lanes
    /// over it from the XPairLaneCache, bound to compiled_bank_; called at
    /// construction and on set_fast_math.
    void refresh_stimulus_trace();

    monitor::MonitorBank bank_;
    kernels::CompiledMonitorBank compiled_bank_;
    MultitoneWaveform stimulus_;
    PipelineOptions options_;
    std::shared_ptr<const std::vector<double>> stimulus_trace_;
    std::optional<capture::Chronogram> golden_;
};

} // namespace xysig::core

#endif // XYSIG_CORE_PIPELINE_H
