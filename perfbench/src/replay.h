#ifndef PERFBENCH_REPLAY_H
#define PERFBENCH_REPLAY_H

/// \file replay.h
/// The traced in-process replay. Single-threaded, it decodes every job
/// line and, for a seeded member sample of each fresh job, calls the
/// layers' public functions in pipeline order, recording a span around
/// each call:
///
///   wire.decode       JsonValue::parse_strict + parse_wire_job
///   golden.set        SignaturePipeline::set_golden
///   signal.sample     SampledSignal::sample_waveform_into (the stimulus)
///   replay.member
///     capture.inject / capture.repair   inject_fault / repair_fault
///     pipeline.evaluate                 SignaturePipeline::evaluate
///     pipeline.stages   the same member again, one layer at a time:
///       filter.respond_y.{exact,fast}   BehaviouralCut::respond_y_into
///       spice.respond                   SpiceCut::respond_into
///       kernels.zone.{exact,fast}       CompiledMonitorBank::codes_into
///       capture.encode                  Chronogram::encode_codes
///       ndf                             core::ndf
///     spice.dc_op / spice.tran   dc_operating_point / run_transient_into
///                                with SpiceCut's options (diagnostics)
///     wire.encode       signature_string + result-object JsonValue::dump
///
/// Every replayed member must reproduce the served ndf_hex; where the raw
/// served line exists, the re-encoded result line must equal it byte for
/// byte.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "spans.h"
#include "stream.h"

namespace perfbench {

struct ReplayCounts {
    std::size_t jobs = 0;
    std::size_t members = 0;
    std::size_t spice_members = 0;
    std::size_t numeric_error_members = 0; ///< members that threw NumericError
    std::size_t zone_visits = 0;
    std::size_t result_bytes = 0; ///< re-encoded result lines
    std::size_t results_encoded = 0;
    std::size_t dc_newton_iterations = 0;
    std::size_t dc_ladder_members = 0; ///< needed gmin or source stepping
    std::size_t tran_newton_iterations = 0;
    std::size_t tran_steps = 0;
    std::size_t trace_cache_hits = 0;   ///< StimulusTraceCache deltas
    std::size_t trace_cache_misses = 0;
    std::vector<std::string> mismatches;
};

/// Replays `jobs` (their recorded results are the reference), sampling
/// `per_job` members of each fresh job and decoding at most `max_jobs`
/// lines.
[[nodiscard]] ReplayCounts replay_jobs(const std::vector<const JobRecord*>& jobs,
                                       std::size_t samples_per_period,
                                       std::uint64_t seed, std::size_t per_job,
                                       std::size_t max_jobs, SpanRecorder& spans);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_H
