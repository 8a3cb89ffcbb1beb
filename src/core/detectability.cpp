#include "core/detectability.h"

#include <algorithm>
#include <cmath>

#include "common/contracts.h"
#include "common/statistics.h"
#include "core/universe.h"
#include "mc/monte_carlo.h"

namespace xysig::core {

double DetectabilityStudy::minimum_detectable() const {
    double best = 0.0;
    for (const auto& p : points) {
        if (!p.detected)
            continue;
        const double mag = std::abs(p.deviation_percent);
        // xylint: exact-compare(0.0 is the nothing-detected-yet sentinel, assigned verbatim above)
        if (best == 0.0 || mag < best)
            best = mag;
    }
    return best;
}

DetectabilityStudy noise_detectability(SignaturePipeline& pipeline,
                                       const filter::Biquad& nominal,
                                       std::span<const double> deviations_percent,
                                       const DetectabilityOptions& options,
                                       std::uint64_t seed) {
    XYSIG_EXPECTS(options.trials >= 2);
    XYSIG_EXPECTS(options.noise_sigma > 0.0);
    XYSIG_EXPECTS(options.periods_averaged >= 1);
    XYSIG_EXPECTS(!deviations_percent.empty());

    // Configure noise and the golden reference (noise-free by definition).
    PipelineOptions popts = pipeline.options();
    popts.noise_sigma = options.noise_sigma;
    SignaturePipeline noisy(pipeline.bank(), pipeline.stimulus(), popts);
    noisy.set_golden(filter::BehaviouralCut(nominal));

    DetectabilityStudy study;

    // One trial = the mean NDF over periods_averaged independently noisy
    // captured periods (a multi-period production capture). Trials run
    // concurrently on pre-forked streams; the scratch buffers are reused
    // across every trial a worker thread executes.
    const auto trial_ndf = [&](const filter::Cut& cut, Rng& rng) {
        thread_local NdfScratch scratch;
        double acc = 0.0;
        for (int p = 0; p < options.periods_averaged; ++p)
            acc += noisy.ndf_of(cut, scratch, &rng);
        return acc / options.periods_averaged;
    };

    // Noise floor: NDF of the noisy golden circuit itself.
    const filter::BehaviouralCut golden_cut(nominal);
    const auto floor_samples = mc::run_monte_carlo_parallel(
        kFloorTrialsPerTrial * options.trials, seed,
        [&](Rng& rng) { return trial_ndf(golden_cut, rng); }, options.threads);
    study.noise_floor_mean = mean(floor_samples);
    study.threshold = percentile(floor_samples, kThresholdPercentile);

    const DeviationUniverse universe(
        nominal, {deviations_percent.begin(), deviations_percent.end()});
    for (std::size_t i = 0; i < universe.size(); ++i) {
        const double dev = deviations_percent[i];
        const filter::BehaviouralCut cut = universe.member(i);
        const auto samples = mc::run_monte_carlo_parallel(
            options.trials, seed + 0x9E3779B9u + static_cast<std::uint64_t>(
                std::llround(std::abs(dev) * 1000.0) + (dev < 0 ? 1 : 0)),
            [&](Rng& rng) { return trial_ndf(cut, rng); }, options.threads);

        DetectabilityPoint point;
        point.deviation_percent = dev;
        point.ndf_mean = mean(samples);
        point.ndf_min = min_value(samples);
        point.ndf_max = max_value(samples);
        std::size_t above = 0;
        for (const double s : samples)
            if (s > study.threshold)
                ++above;
        point.detection_rate =
            static_cast<double>(above) / static_cast<double>(samples.size());
        point.detected = point.detection_rate >= kRequiredRate;
        study.points.push_back(point);
    }
    return study;
}

} // namespace xysig::core
