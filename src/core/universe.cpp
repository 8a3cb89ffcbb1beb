#include "core/universe.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <limits>

#include "common/annotated_mutex.h"
#include "common/contracts.h"
#include "common/ordered_merge.h"
#include "common/parallel.h"
#include "common/strings.h"

namespace xysig::core {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] Clock::time_point now() {
    // xylint: nondeterminism-ok(shard and run wall-clock telemetry only; never reaches member values, signatures or delivery order)
    return Clock::now();
}

[[nodiscard]] double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(now() - t0).count();
}

} // namespace

// ---------------------------------------------------------------- universes

MemberResult Universe::evaluate(std::size_t i, const SignaturePipeline& pipeline,
                                UniverseWorker& worker) const {
    MemberResult result;
    result.member_id = i;
    result.label = label(i);
    try {
        auto evaluation = evaluate_member(i, pipeline, worker);
        result.ndf = evaluation.ndf;
        result.signature = std::move(evaluation.observed);
    } catch (const NumericError&) {
        // Quiet NaN keeps "simulation failed" distinguishable from any real
        // NDF; callers decide whether that means "detected".
        result.ndf = std::numeric_limits<double>::quiet_NaN();
    }
    return result;
}

CutListUniverse::CutListUniverse(std::vector<const filter::Cut*> cuts,
                                 const filter::Cut* golden)
    : cuts_(std::move(cuts)), golden_(golden) {
    for (const filter::Cut* cut : cuts_)
        XYSIG_EXPECTS(cut != nullptr);
}

std::string CutListUniverse::label(std::size_t i) const {
    return cuts_[i]->description();
}

void CutListUniverse::set_golden(SignaturePipeline& pipeline) const {
    XYSIG_EXPECTS(golden_ != nullptr);
    pipeline.set_golden(*golden_);
}

SignaturePipeline::CutEvaluation CutListUniverse::evaluate_member(
    std::size_t i, const SignaturePipeline& pipeline,
    UniverseWorker& worker) const {
    return pipeline.evaluate(*cuts_[i], worker.scratch);
}

DeviationUniverse::DeviationUniverse(filter::Biquad nominal,
                                     std::vector<double> deviations_percent,
                                     SweptParameter parameter)
    : nominal_(nominal), deviations_percent_(std::move(deviations_percent)),
      parameter_(parameter) {}

std::string DeviationUniverse::label(std::size_t i) const {
    return std::string("dev(") + (parameter_ == SweptParameter::f0 ? "f0" : "q") +
           "," + format_double(deviations_percent_[i], 6) + "%)";
}

void DeviationUniverse::set_golden(SignaturePipeline& pipeline) const {
    pipeline.set_golden(filter::BehaviouralCut(nominal_));
}

filter::BehaviouralCut DeviationUniverse::member(std::size_t i) const {
    const double frac = deviations_percent_[i] / 100.0;
    return filter::BehaviouralCut(parameter_ == SweptParameter::f0
                                      ? nominal_.with_f0_shift(frac)
                                      : nominal_.with_q_shift(frac));
}

SignaturePipeline::CutEvaluation DeviationUniverse::evaluate_member(
    std::size_t i, const SignaturePipeline& pipeline,
    UniverseWorker& worker) const {
    return pipeline.evaluate(member(i), worker.scratch);
}

FaultUniverse::FaultUniverse(std::shared_ptr<const spice::Netlist> nominal,
                             std::vector<capture::NetlistFault> faults,
                             SpiceObservation observation)
    : nominal_(std::move(nominal)), faults_(std::move(faults)),
      observation_(std::move(observation)) {
    XYSIG_EXPECTS(nominal_ != nullptr);
}

std::string FaultUniverse::label(std::size_t i) const {
    return faults_[i].description();
}

void FaultUniverse::set_golden(SignaturePipeline& pipeline) const {
    // SPICE goldens have no exact fingerprint, so set_golden recomputes
    // them per job over a fresh clone.
    pipeline.set_golden(filter::SpiceCut(
        std::make_unique<spice::Netlist>(nominal_->clone()),
        observation_.input_source, observation_.x_node, observation_.y_node,
        observation_.settle_periods));
}

SignaturePipeline::CutEvaluation FaultUniverse::evaluate_member(
    std::size_t i, const SignaturePipeline& pipeline,
    UniverseWorker& worker) const {
    if (!worker.netlist.has_value()) {
        worker.netlist.emplace(nominal_->clone());
        ++worker.netlist_clones;
        worker.cut.emplace(*worker.netlist, observation_.input_source,
                           observation_.x_node, observation_.y_node,
                           observation_.settle_periods);
    }
    // RAII, so a NumericError mid-run still hands the next fault a pristine
    // circuit.
    const capture::ScopedFaultInjection injection(*worker.netlist, faults_[i]);
    return pipeline.evaluate(*worker.cut, worker.scratch);
}

// ----------------------------------------------------------------- executor

namespace {

/// Everything the workers of one run_universe call share.
struct Run {
    Run(const Universe& u, const SignaturePipeline& p, const CancelToken* c,
        unsigned workers)
        : universe(u), pipeline(p), cancel(c), members(u.size()),
          members_per_shard(work_unit_size(members, workers)),
          shards((members + members_per_shard - 1) / members_per_shard) {}

    const Universe& universe;
    const SignaturePipeline& pipeline;
    const CancelToken* cancel;
    const std::size_t members;
    const std::size_t members_per_shard;
    const std::size_t shards;

    std::atomic<std::size_t> next_shard{0};
    std::atomic<std::size_t> members_done{0};
    std::atomic<std::size_t> shards_done{0};
    std::atomic<std::uint64_t> clones{0};
    std::atomic<bool> failed{false};

    Mutex mutex;
    std::vector<ShardTiming> timings GUARDED_BY(mutex);
    std::exception_ptr error GUARDED_BY(mutex);

    [[nodiscard]] bool aborted() const noexcept {
        return failed.load(std::memory_order_relaxed) ||
               (cancel != nullptr && cancel->cancelled());
    }

    /// Claims shards until none are left or the run aborts, handing every
    /// evaluated member to `publish`. Never throws, because a pool task
    /// must not: a throw from evaluation, `publish` or the shard's
    /// bookkeeping parks the first error for run_universe to rethrow and
    /// stops the whole run.
    template <class Publish>
    void work(unsigned slot, const Publish& publish) {
        UniverseWorker worker;
        while (!aborted()) {
            const std::size_t shard =
                next_shard.fetch_add(1, std::memory_order_relaxed);
            if (shard >= shards)
                break;
            const std::size_t first = shard * members_per_shard;
            const std::size_t last = std::min(first + members_per_shard, members);
            const auto t0 = now();
            std::size_t evaluated = 0;
            try {
                for (std::size_t i = first; i < last && !aborted(); ++i) {
                    MemberResult result = universe.evaluate(i, pipeline, worker);
                    ++evaluated;
                    members_done.fetch_add(1, std::memory_order_relaxed);
                    publish(std::move(result));
                }
                MutexLock lock(mutex);
                timings.push_back(
                    {shard, first, evaluated, slot, seconds_since(t0)});
            } catch (...) {
                {
                    MutexLock lock(mutex);
                    if (!error)
                        error = std::current_exception();
                }
                failed.store(true, std::memory_order_relaxed);
            }
            if (first + evaluated == last)
                shards_done.fetch_add(1, std::memory_order_relaxed);
        }
        clones.fetch_add(worker.netlist_clones, std::memory_order_relaxed);
    }
};

} // namespace

RunSummary run_universe(const Universe& universe,
                        const SignaturePipeline& pipeline,
                        const Schedule& schedule,
                        const std::function<void(const MemberResult&)>& on_result,
                        const CancelToken* cancel) {
    XYSIG_EXPECTS(on_result != nullptr);
    XYSIG_EXPECTS(schedule.pool == nullptr || schedule.workers >= 1);
    Run run(universe, pipeline, cancel, schedule.workers);

    const unsigned tasks =
        schedule.pool == nullptr
            ? 1u
            : static_cast<unsigned>(
                  std::min<std::size_t>(schedule.workers, run.shards));
    const auto t0 = now();
    if (run.shards > 0 && tasks == 1) {
        // One evaluator: the calling thread, so a single-shard job pays no
        // thread handoff. In order by construction: deliver straight from
        // the evaluation.
        run.work(0, [&](MemberResult&& result) { on_result(result); });
    } else if (run.shards > 0) {
        // Pool tasks evaluate; this thread delivers through the merge.
        OrderedMerge<MemberResult> merge(tasks);
        try {
            for (unsigned slot = 0; slot < tasks; ++slot) {
                try {
                    schedule.pool->submit([&run, &merge, slot] {
                        run.work(slot, [&merge](MemberResult&& result) {
                            const std::size_t id = result.member_id;
                            merge.publish(id, std::move(result));
                        });
                        // The task's last touch of `run` and `merge`.
                        merge.done();
                    });
                } catch (...) {
                    merge.done(tasks - slot); // never submitted
                    throw;
                }
            }
            merge.deliver([&](MemberResult&& result) { on_result(result); });
        } catch (...) {
            // A failed submit or a throwing on_result: stop the tasks and
            // wait until none can touch `run` before it unwinds.
            run.failed.store(true, std::memory_order_relaxed);
            merge.wait_done();
            throw;
        }
    }

    RunSummary summary;
    summary.members_total = run.members;
    summary.shards_total = run.shards;
    summary.seconds = seconds_since(t0);
    summary.members_done = run.members_done.load(std::memory_order_relaxed);
    summary.shards_done = run.shards_done.load(std::memory_order_relaxed);
    summary.cancelled = cancel != nullptr && cancel->cancelled();
    summary.netlist_clones = run.clones.load(std::memory_order_relaxed);
    {
        MutexLock lock(run.mutex);
        if (run.error)
            std::rethrow_exception(run.error);
        summary.shard_timings = std::move(run.timings);
    }
    std::sort(summary.shard_timings.begin(), summary.shard_timings.end(),
              [](const ShardTiming& a, const ShardTiming& b) {
                  return a.shard < b.shard;
              });
    return summary;
}

} // namespace xysig::core
