#ifndef XYSIG_CORE_GOLDEN_CACHE_H
#define XYSIG_CORE_GOLDEN_CACHE_H

/// \file golden_cache.h
/// Process-wide cache of golden (ideal, unquantised) chronograms.
///
/// Sweep drivers rebuild a SignaturePipeline per grid point — the capture
/// ablation rebuilds one per (f_clk, counter_bits) cell — and every rebuild
/// used to recompute the golden signature from scratch even though the
/// (bank, stimulus, sampling options, golden CUT) tuple is unchanged. The
/// cache stores the expensive pre-quantisation chronogram under an exact
/// string key assembled from those four fingerprints (see
/// SignaturePipeline::golden_cache_key), so capture-option grids share one
/// golden computation. Quantisation, which does depend on the capture
/// options, is applied per pipeline after lookup.
///
/// The cache is bounded: a long-lived sweep service sees an unbounded
/// stream of distinct fingerprints (every job may carry a new golden CUT),
/// so entries beyond its 1024-entry bound are evicted least-recently-used
/// — an eviction only costs one recomputation if the key ever returns.
/// Keying, locking and eviction rules are ExactLruCache's.

#include "capture/chronogram.h"
#include "core/exact_lru_cache.h"

namespace xysig::core {

/// Goldens are tiny (tens of events), so the bound is sized for
/// "every concurrently useful experimental setup" rather than for memory
/// pressure. instance() is the one SignaturePipeline::set_golden uses.
using GoldenSignatureCache = ExactLruCache<capture::Chronogram, 1024>;

} // namespace xysig::core

#endif // XYSIG_CORE_GOLDEN_CACHE_H
