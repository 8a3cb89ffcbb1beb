#include "core/ndf.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/contracts.h"

namespace xysig::core {

unsigned hamming_distance(unsigned a, unsigned b) noexcept {
    return static_cast<unsigned>(std::popcount(a ^ b));
}

std::vector<HammingSegment> hamming_profile(const capture::Chronogram& observed,
                                            const capture::Chronogram& golden) {
    const double t_obs = observed.period();
    const double t_gold = golden.period();
    XYSIG_EXPECTS(std::abs(t_obs - t_gold) <= 1e-3 * std::max(t_obs, t_gold));
    const double period = std::min(t_obs, t_gold);

    // Merge both event time sets (within the integration window).
    std::vector<double> cuts;
    cuts.reserve(observed.events().size() + golden.events().size() + 1);
    for (const auto& e : observed.events())
        if (e.t < period)
            cuts.push_back(e.t);
    for (const auto& e : golden.events())
        if (e.t < period)
            cuts.push_back(e.t);
    cuts.push_back(0.0);
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

    std::vector<HammingSegment> profile;
    profile.reserve(cuts.size());
    for (std::size_t i = 0; i < cuts.size(); ++i) {
        const double t0 = cuts[i];
        const double t1 = (i + 1 < cuts.size()) ? cuts[i + 1] : period;
        if (t1 <= t0)
            continue;
        const unsigned d =
            hamming_distance(observed.code_at(t0), golden.code_at(t0));
        // Merge with the previous segment when the distance is unchanged so
        // the profile is minimal (nicer chronogram plots).
        if (!profile.empty() && profile.back().distance == d &&
            // xylint: exact-compare(abutting segments carry the same double boundary value verbatim)
            profile.back().t_end == t0) {
            profile.back().t_end = t1;
        } else {
            profile.push_back({t0, t1, d});
        }
    }
    return profile;
}

double ndf(const capture::Chronogram& observed, const capture::Chronogram& golden) {
    const auto profile = hamming_profile(observed, golden);
    XYSIG_ASSERT(!profile.empty());
    const double period = profile.back().t_end;
    double acc = 0.0;
    for (const auto& seg : profile)
        acc += static_cast<double>(seg.distance) * (seg.t_end - seg.t_begin);
    return acc / period;
}

} // namespace xysig::core
