#include "server/job_cache.h"

#include "core/trace_cache.h"

namespace xysig::server {

std::string pipeline_fingerprint(const core::SignaturePipeline& pipe) {
    const std::string bank_fp = pipe.bank().fingerprint();
    if (bank_fp.empty())
        return {}; // a custom monitor without a fingerprint is uncacheable
    const core::PipelineOptions& opts = pipe.options();
    // xylint: exact-compare(sigma=0 is the exact no-noise switch; any other value disables caching)
    if (opts.noise_sigma != 0.0 || opts.quantise)
        return {}; // noise draws / capture options are not in the key scheme
    // Discrete appends, not a `"x" + std::string&&` chain: that pattern hits
    // GCC's -Wrestrict false positive at -O3 under the -Werror hardening lane.
    std::string fp = "bank{";
    fp += bank_fp;
    fp += "}|";
    fp += core::stimulus_fingerprint(pipe.stimulus());
    fp += "|spp=" + std::to_string(opts.samples_per_period);
    fp += "|ck=";
    fp += opts.compiled_kernels ? '1' : '0';
    // Results from different sampling modes differ within the fast-math
    // ULP tolerance; they must never be served for each other.
    fp += "|fm=";
    fp += opts.fast_math ? '1' : '0';
    return fp;
}

} // namespace xysig::server
