#ifndef XYSIG_CORE_TRACE_CACHE_H
#define XYSIG_CORE_TRACE_CACHE_H

/// \file trace_cache.h
/// Process-wide cache of sampled stimulus traces, plus the exact stimulus
/// fingerprint every cache key in the tree embeds.
///
/// For behavioural universes the x channel of every member is the
/// stimulus itself (Cut::x_is_stimulus), yet the batch engine used to
/// re-sample the identical trace once per member per job — members ×
/// samples_per_period redundant sine evaluations. This cache stores one
/// immutable trace per (stimulus fingerprint, samples_per_period,
/// sample mode) key; SignaturePipeline fetches it once and every worker
/// thread reads the same shared buffer, so a whole job costs exactly one
/// stimulus sampling (the miss — the `misses()` counter doubles as the
/// sampling-count probe in tests and bench gates).
///
/// Keys are exact (hexfloat tone fingerprints): two stimuli differing in
/// one phase bit never alias, and a hit is bit-identical to resampling.
/// Keying, locking and eviction rules are ExactLruCache's.

#include <cstddef>
#include <string>
#include <vector>

#include "core/exact_lru_cache.h"
#include "signal/sample_mode.h"
#include "signal/waveform.h"

namespace xysig::core {

/// Exact stimulus fingerprint "stim{offset;amp,freq,phase;...}" with
/// hexfloat values. The golden-cache key, the trace-cache key and the
/// job-cache pipeline fingerprint all embed this one string.
[[nodiscard]] std::string stimulus_fingerprint(const MultitoneWaveform& stimulus);

/// Exact cache key for one sampled stimulus trace:
/// "stim{...}|spp=N|fm=0|1". The sample mode is part of the key because
/// exact and fast_math traces legitimately differ within the ULP tolerance
/// and must never alias.
[[nodiscard]] std::string stimulus_trace_key(const MultitoneWaveform& stimulus,
                                             std::size_t samples_per_period,
                                             SampleMode mode);

/// Traces are samples_per_period doubles (64 KiB at the paper's 8192), so
/// the bound is far smaller than the golden cache's: a process
/// rarely juggles more than a handful of (stimulus, spp, mode) setups at
/// once. instance() is the one SignaturePipeline uses.
using StimulusTraceCache = ExactLruCache<std::vector<double>, 64>;

} // namespace xysig::core

#endif // XYSIG_CORE_TRACE_CACHE_H
