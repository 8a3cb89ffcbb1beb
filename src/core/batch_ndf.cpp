#include "core/batch_ndf.h"

#include "common/contracts.h"
#include "common/parallel.h"

namespace xysig::core {

BatchNdfEvaluator::BatchNdfEvaluator(const SignaturePipeline& pipeline,
                                     Options options)
    : pipeline_(&pipeline), options_(options) {}

std::vector<double> BatchNdfEvaluator::evaluate(const Universe& universe) const {
    XYSIG_EXPECTS(pipeline_->has_golden());
    Schedule schedule{nullptr, options_.threads == 0 ? default_thread_count()
                                                     : options_.threads};
    // Nested calls stay on the calling thread: a pool worker blocking on
    // helper tasks could starve the pool into deadlock.
    if (schedule.workers > 1 && !in_parallel_region())
        schedule.pool = &ThreadPool::shared();
    std::vector<double> out(universe.size());
    (void)run_universe(universe, *pipeline_, schedule,
                       [&](const MemberResult& r) { out[r.member_id] = r.ndf; });
    return out;
}

std::vector<double> BatchNdfEvaluator::evaluate(
    std::span<const filter::Cut* const> cuts) const {
    return evaluate(CutListUniverse({cuts.begin(), cuts.end()}));
}

std::vector<double> BatchNdfEvaluator::evaluate(
    const std::vector<std::unique_ptr<filter::Cut>>& cuts) const {
    std::vector<const filter::Cut*> raw;
    raw.reserve(cuts.size());
    for (const auto& c : cuts)
        raw.push_back(c.get());
    return evaluate(raw);
}

std::vector<double> BatchNdfEvaluator::evaluate_deviations(
    const filter::Biquad& nominal, std::span<const double> deviations_percent,
    SweptParameter parameter) const {
    return evaluate(DeviationUniverse(
        nominal, {deviations_percent.begin(), deviations_percent.end()},
        parameter));
}

std::vector<std::unique_ptr<filter::Cut>> BatchNdfEvaluator::build_fault_universe(
    const spice::Netlist& nominal, std::span<const capture::NetlistFault> faults,
    const SpiceObservation& observation) {
    std::vector<std::unique_ptr<filter::Cut>> universe;
    universe.reserve(faults.size());
    for (const auto& fault : faults) {
        auto faulty = std::make_unique<spice::Netlist>(
            capture::apply_fault(nominal, fault));
        universe.push_back(std::make_unique<filter::SpiceCut>(
            std::move(faulty), observation.input_source, observation.x_node,
            observation.y_node, observation.settle_periods));
    }
    return universe;
}

} // namespace xysig::core
