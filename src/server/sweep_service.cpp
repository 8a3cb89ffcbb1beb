#include "server/sweep_service.h"

#include "common/contracts.h"

namespace xysig::server {

// ----------------------------------------------------------------- SweepJob

SweepJob::SweepJob(std::shared_ptr<const core::Universe> universe)
    : universe_(std::move(universe)) {
    XYSIG_EXPECTS(universe_ != nullptr);
}

SweepJob SweepJob::deviation_grid(filter::Biquad nominal,
                                  std::vector<double> deviations_percent,
                                  core::SweptParameter parameter) {
    return SweepJob(std::make_shared<core::DeviationUniverse>(
        nominal, std::move(deviations_percent), parameter));
}

SweepJob SweepJob::fault_universe(std::shared_ptr<const spice::Netlist> nominal,
                                  std::vector<capture::NetlistFault> faults,
                                  core::SpiceObservation observation) {
    return SweepJob(std::make_shared<core::FaultUniverse>(
        std::move(nominal), std::move(faults), std::move(observation)));
}

// -------------------------------------------------------------- SweepService

SweepService::SweepService(core::SignaturePipeline pipeline,
                           SweepServiceOptions options)
    : pipeline_(std::move(pipeline)), pool_(options.workers) {}

core::SignaturePipeline SweepService::job_pipeline(const SweepJob& job) const {
    XYSIG_EXPECTS(job.universe_ != nullptr);
    core::SignaturePipeline pipe = pipeline_;
    // Pin the sampling mode before the golden is resolved so the golden
    // and every member of the job evaluate under the same mode (the golden
    // cache and the shared stimulus trace are both keyed on it).
    pipe.set_fast_math(fast_math_for(job));
    job.universe_->set_golden(pipe);
    return pipe;
}

JobSummary SweepService::run(const SweepJob& job,
                             const ResultCallback& on_result,
                             SweepCancelToken* cancel) {
    XYSIG_EXPECTS(on_result != nullptr);
    XYSIG_EXPECTS(job.universe_ != nullptr);
    const core::SignaturePipeline pipe = job_pipeline(job);

    const core::Schedule schedule{&pool_, worker_count()};
    JobSummary summary =
        core::run_universe(*job.universe_, pipe, schedule, on_result, cancel);

    MutexLock lock(stats_mutex_);
    ++stats_.jobs;
    stats_.members += summary.members_done;
    stats_.shards += summary.shards_done;
    stats_.netlist_clones += summary.netlist_clones;
    return summary;
}

SweepService::ServiceStats SweepService::stats() const {
    MutexLock lock(stats_mutex_);
    return stats_;
}

} // namespace xysig::server
