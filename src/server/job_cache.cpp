#include "server/job_cache.h"

namespace xysig::server {

std::string pipeline_fingerprint(const core::SignaturePipeline& pipe) {
    const core::PipelineOptions& opts = pipe.options();
    // xylint: exact-compare(sigma=0 is the exact no-noise switch; any other value disables caching)
    if (opts.noise_sigma != 0.0 || opts.quantise)
        return {}; // noise draws / capture options are not in the key scheme
    return pipe.fingerprint();
}

} // namespace xysig::server
