#include "server/job_cache.h"

namespace xysig::server {

std::string pipeline_fingerprint(const core::SignaturePipeline& pipe) {
    const core::PipelineOptions& opts = pipe.options();
    // xylint: exact-compare(sigma=0 is the exact no-noise switch; any other value disables caching)
    if (opts.noise_sigma != 0.0 || opts.quantise)
        return {}; // noise draws / capture options are not in the key scheme
    return pipe.fingerprint();
}

std::size_t JobResultBytes::result_bytes(const SweepResult& r) noexcept {
    std::size_t bytes = sizeof(SweepResult) + r.label.size();
    if (r.signature.has_value())
        bytes += r.signature->events().size() * sizeof(capture::CodeEvent);
    return bytes;
}

std::size_t JobResultBytes::weigh(const std::string& key,
                                  const std::vector<SweepResult>& results) noexcept {
    std::size_t bytes = key.size();
    for (const SweepResult& r : results)
        bytes += result_bytes(r);
    return bytes;
}

} // namespace xysig::server
