#ifndef XYSIG_SERVER_JOB_CACHE_H
#define XYSIG_SERVER_JOB_CACHE_H

/// \file job_cache.h
/// Content-addressed whole-job result cache for the scheduler: the
/// core::GoldenSignatureCache exact-hexfloat fingerprint scheme generalised
/// from one golden chronogram to an entire universe's result stream.
///
/// A cache key is `pipeline_fingerprint(pipe) + "job{" + universe_key + "}"`
/// — every float that feeds the evaluation appears in exact hexfloat form
/// (bank fingerprint, stimulus tones, samples_per_period, sampling mode,
/// deviation values / fault-universe options), so a hit is bit-identical to
/// recomputation by construction. The member RANGE is deliberately not part
/// of the key: an entry holds the results of the FULL universe (global
/// member id i at index i), and any `members` slice of that universe is
/// served by indexing it — a fan-out slice of a previously completed full
/// job streams from the cache without touching a worker.
///
/// Keying, locking, LRU bounding and shared_ptr keep-alive are
/// core::ExactLruCache's. Like the golden and trace caches there is one
/// instance per process (JobResultCache::instance()), shared by every
/// scheduler, so a job resubmitted on another connection is served from
/// it too. Two bounds hold, both constants: 64 entries and 8 MiB of stored
/// results and keys, for the whole process, so neither a faster server nor
/// more connections hold more finished jobs' worth of memory. A job whose
/// results alone outweigh the ceiling is never cached; the scheduler stops
/// collecting it as soon as it does.

#include <cstddef>
#include <string>
#include <vector>

#include "core/exact_lru_cache.h"
#include "core/pipeline.h"
#include "server/sweep_service.h"

namespace xysig::server {

/// Exact fingerprint of everything a pipeline contributes to result bits:
/// SignaturePipeline::fingerprint() (bank, stimulus, samples per period,
/// sampling mode), the same string the golden cache keys on. Empty
/// whenever the pipeline adds noise or quantises, whose draws and capture
/// options are outside the key — an empty fingerprint disables job caching
/// for that pipeline, it never aliases.
[[nodiscard]] std::string
pipeline_fingerprint(const core::SignaturePipeline& pipe);

/// JobResultCache's weigh policy: bytes held, against a fixed 8 MiB.
struct JobResultBytes {
    static constexpr std::size_t kCeiling = std::size_t{8} << 20;
    /// One stored result: the struct, its label and its signature's events.
    [[nodiscard]] static std::size_t result_bytes(const SweepResult& r) noexcept;
    [[nodiscard]] static std::size_t weigh(const std::string& key,
                                           const std::vector<SweepResult>& results) noexcept;
};

/// Exact job keys to full-universe result streams. Whole-universe payloads
/// (members × chronograms) are much heavier than goldens, so the entry
/// bound is smaller than the golden cache's, and bytes are bounded too.
using JobResultCache = core::ExactLruCache<std::vector<SweepResult>, 64, JobResultBytes>;

} // namespace xysig::server

#endif // XYSIG_SERVER_JOB_CACHE_H
