#ifndef XYSIG_SERVER_SWEEP_SERVICE_H
#define XYSIG_SERVER_SWEEP_SERVICE_H

/// \file sweep_service.h
/// Long-lived sharded sweep service: core::run_universe on a ThreadPool the
/// service owns, plus a read-only pipeline each job evaluates a copy of.
///
/// A sweep job is one member universe (core::Universe) — a SPICE fault
/// universe, a behavioural deviation grid, or an explicit CUT list —
/// screened against its golden signature. The executor shards the universe
/// into contiguous work units (work_unit_size: about eight per worker, at
/// most 64 members), schedules them across the pool, and streams
/// (member_id, ndf, signature) results incrementally through a callback, in
/// member order, instead of materialising one giant result vector.
///
/// Guarantees (pinned by tests/server and bench_sweep_service):
///  * NDF values are bit-identical to the serial reference — the
///    clone-per-fault universe for SPICE jobs — at ANY worker count;
///  * SPICE universes are evaluated with ONE netlist clone per worker, not
///    one per fault (core::FaultUniverse), plus one for the golden, all
///    inside run();
///  * goldens are served from the process-wide core::GoldenSignatureCache,
///    so repeated jobs over the same (cut, bank, stimulus) fingerprint
///    compute the golden once per fingerprint, not once per job;
///  * the service pipeline is never written after construction: each job
///    runs on its own copy (job_pipeline), so a concurrent reader — a
///    scheduler's golden prefetch on a submitting thread — never races
///    with a running job;
///  * non-convergent members stream as quiet-NaN NDFs with no signature
///    (core::Universe::evaluate).

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "common/annotated_mutex.h"
#include "common/parallel.h"
#include "core/universe.h"

namespace xysig::server {

struct SweepServiceOptions {
    /// Pool worker threads; 0 = default_thread_count().
    unsigned workers = 0;
};

using SweepResult = core::MemberResult;
using ShardTiming = core::ShardTiming;
using JobSummary = core::RunSummary;
using SweepCancelToken = core::CancelToken;

/// One sweep universe plus its per-job options. A default-constructed job
/// has no universe (size 0) and run() rejects it; it exists so wire
/// decoders can declare-then-assign.
class SweepJob {
public:
    SweepJob() = default;
    explicit SweepJob(std::shared_ptr<const core::Universe> universe);

    /// Behavioural deviation grid (core::DeviationUniverse).
    [[nodiscard]] static SweepJob deviation_grid(
        filter::Biquad nominal, std::vector<double> deviations_percent,
        core::SweptParameter parameter = core::SweptParameter::f0);

    /// SPICE fault universe (core::FaultUniverse). The job shares ownership
    /// of the nominal so decoded wire jobs need no external keep-alive.
    [[nodiscard]] static SweepJob fault_universe(
        std::shared_ptr<const spice::Netlist> nominal,
        std::vector<capture::NetlistFault> faults,
        core::SpiceObservation observation);

    /// Universe member count (0 without a universe).
    [[nodiscard]] std::size_t size() const noexcept {
        return universe_ ? universe_->size() : 0;
    }

    /// Per-job sampling mode: set to pin the pipeline's fast_math flag for
    /// this job; nullopt runs under the mode the service was constructed
    /// with (SweepService::fast_math_for). job_pipeline applies it before
    /// resolving the golden, so the golden and every member evaluate under
    /// one mode and no job inherits another job's mode.
    std::optional<bool> fast_math;

private:
    friend class SweepService;
    std::shared_ptr<const core::Universe> universe_;
};

/// The service. Owns a read-only pipeline (each job evaluates against its
/// own copy, see job_pipeline) and a ThreadPool whose workers live across
/// jobs; run() is the blocking submit-and-stream entry point and may be
/// called repeatedly, from one thread at a time — its owner's (a session's
/// scheduler dispatcher), so one job at a time owns the pool. Results
/// within a job are produced on the pool (a single-shard job on the
/// caller's thread) and always delivered from the run() caller's thread.
class SweepService {
public:
    using ResultCallback = std::function<void(const SweepResult&)>;

    explicit SweepService(core::SignaturePipeline pipeline,
                          SweepServiceOptions options = {});

    SweepService(const SweepService&) = delete;
    SweepService& operator=(const SweepService&) = delete;

    /// Evaluates every member of the job, invoking on_result once per
    /// evaluated member in ascending member_id order (contiguous from 0
    /// unless cancelled). Blocks until the job completes, is cancelled, or a
    /// worker fails with a non-member error (InvalidInput etc.), which is
    /// rethrown here after in-flight units drain. The callback runs on the
    /// caller's thread, so it may cancel, aggregate, or write to a stream
    /// without synchronisation. Throws ContractError for a job without a
    /// universe.
    JobSummary run(const SweepJob& job, const ResultCallback& on_result,
                   SweepCancelToken* cancel = nullptr);

    /// The construction-time pipeline; never written afterwards, so any
    /// thread may read or copy it at any time.
    [[nodiscard]] const core::SignaturePipeline& pipeline() const noexcept {
        return pipeline_;
    }
    /// The pipeline `job` evaluates against: a copy of pipeline() with the
    /// job's sampling mode (fast_math_for) pinned and its universe's golden
    /// installed (served from the golden cache when it has an exact key).
    /// run() calls it for every job; the scheduler calls it at submit to
    /// warm the golden cache, and verify_serial for its reference. Throws
    /// ContractError for a job without a universe.
    [[nodiscard]] core::SignaturePipeline job_pipeline(const SweepJob& job) const;
    [[nodiscard]] unsigned worker_count() const noexcept {
        return pool_.thread_count();
    }
    /// The sampling mode `job` runs under: its pinned flag, else the
    /// pipeline's mode.
    [[nodiscard]] bool fast_math_for(const SweepJob& job) const noexcept {
        return job.fast_math.value_or(pipeline_.options().fast_math);
    }

    /// Lifetime totals across jobs.
    struct ServiceStats {
        std::uint64_t jobs = 0;
        std::uint64_t members = 0;
        std::uint64_t shards = 0;
        std::uint64_t netlist_clones = 0;
    };
    [[nodiscard]] ServiceStats stats() const EXCLUDES(stats_mutex_);

private:
    const core::SignaturePipeline pipeline_;
    ThreadPool pool_;

    mutable Mutex stats_mutex_;
    ServiceStats stats_ GUARDED_BY(stats_mutex_);
};

} // namespace xysig::server

#endif // XYSIG_SERVER_SWEEP_SERVICE_H
