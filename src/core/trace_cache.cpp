#include "core/trace_cache.h"

#include "common/strings.h"

namespace xysig::core {

std::string stimulus_fingerprint(const MultitoneWaveform& stimulus) {
    // Discrete appends, not a `"x" + std::string&&` chain: that pattern hits
    // GCC's -Wrestrict false positive at -O3 under the -Werror hardening lane.
    std::string fp = "stim{";
    fp += format_double_exact(stimulus.offset());
    for (const Tone& tone : stimulus.tones()) {
        fp += ';';
        fp += format_double_exact(tone.amplitude);
        fp += ',';
        fp += format_double_exact(tone.frequency_hz);
        fp += ',';
        fp += format_double_exact(tone.phase_rad);
    }
    fp += '}';
    return fp;
}

std::string stimulus_trace_key(const MultitoneWaveform& stimulus,
                               std::size_t samples_per_period,
                               SampleMode mode) {
    std::string key = stimulus_fingerprint(stimulus);
    key += "|spp=" + std::to_string(samples_per_period);
    key += "|fm=";
    key += mode == SampleMode::fast_math ? '1' : '0';
    return key;
}

} // namespace xysig::core
