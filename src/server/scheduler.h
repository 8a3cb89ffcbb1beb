#ifndef XYSIG_SERVER_SCHEDULER_H
#define XYSIG_SERVER_SCHEDULER_H

/// \file scheduler.h
/// Queued multi-tenant job scheduler over one SweepService: the layer that
/// turns the blocking one-job-at-a-time `run()` call into a submit API.
///
///  * submit() returns once the job is queued (or, on a whole-job cache
///    hit, already streamed), so job N+1 is accepted while job N runs.
///    Each job reports through its own JobSink, called by whichever thread
///    moves the job: a running job's results go from the service's
///    in-order delivery straight into the sink, with no per-job queue and
///    no per-job thread.
///  * Dispatch order is priority-descending, then fair-share round-robin
///    across client ids (the least-recently-served client wins a tie), then
///    FIFO within a client — a flood from one client cannot starve another
///    at equal priority, and a high-priority job can never be passed over
///    in favour of a lower-priority one (no priority inversion).
///  * Golden prefetch on the submitting thread: a behavioural job that
///    will wait behind another job builds its SweepService::job_pipeline
///    before it is enqueued. That warms the process-wide
///    core::GoldenSignatureCache, so the job's own job_pipeline call when
///    it runs hits the cache (bit-identically — the cache key scheme
///    guarantees it). A job submitted to an idle scheduler skips the call:
///    the dispatcher makes the same call at once.
///  * The process-wide content-addressed JobResultCache (see job_cache.h)
///    short-circuits whole jobs: an exact resubmit — or any member-range
///    slice of a cached full universe — streams results without touching a
///    worker, whichever scheduler (connection) ran the job first.
///
/// Bit-identity contract: at ANY queue depth × worker count, every job's
/// result stream is in ascending member order and bit-identical to a serial
/// SweepService::run() of the same job (cache hits included: keys are exact
/// hexfloat fingerprints, so a hit replays the identical bits).
///
/// Thread-safety: submit()/cancel()/set_paused()/wait_idle()/stats() are
/// concurrently callable from any thread, sinks included.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/annotated_mutex.h"
#include "server/sweep_service.h"
#include "server/wire.h"

namespace xysig::server {

/// Terminal state of a scheduled job.
enum class JobState {
    done,      ///< completed; every member streamed
    failed,    ///< evaluation error; see JobOutcome::error
    cancelled, ///< cancelled while queued or running (partial stream)
};

/// What a finished job reports.
struct JobOutcome {
    JobState state = JobState::done;
    bool from_cache = false; ///< served by the whole-job cache, no workers
    JobSummary summary;      ///< zeroed shards/clones for cache hits
    std::string error;       ///< non-empty iff state == failed
    /// verify_serial accounting (the serial reference runs after the job,
    /// against its own SweepService::job_pipeline).
    bool verify_ran = false;
    bool verified = true;
    bool verify_skipped_cancelled = false;
    std::size_t verify_members = 0;
    double queue_seconds = 0.0; ///< submit -> dispatch/cache-serve (0 if never)
};

/// Per-job event sink. One job's calls arrive in this order: queued, then
/// started, then result for each member in ascending local id, then
/// finished — or queued then finished alone for a job cancelled while
/// queued. They never overlap. The calling thread is the submitter's for a
/// submit-time cache hit, the dispatcher's for a run or a dispatch-time
/// cache hit, and the canceller's (cancel() or the destructor) for a
/// dequeued job. No sink is called with a scheduler lock held, so a sink
/// may call JobScheduler::cancel. A sink that blocks holds up the
/// dispatcher: queued jobs wait without running, nothing is buffered.
/// queued() and finished() must not throw; an exception from started() or
/// result() fails the job.
class JobSink {
public:
    virtual ~JobSink() = default;
    /// From submit(): `position` jobs were queued ahead of this one;
    /// `cached` = served by the whole-job cache before submit() returns.
    virtual void queued(std::size_t position, bool cached) = 0;
    virtual void started() = 0;
    virtual void result(const SweepResult& r) = 0;
    /// Last call. The job's Stats accounting and cache insert are done.
    virtual void finished(const JobOutcome& outcome) = 0;
};

/// The scheduler. Owns the dispatcher thread; borrows the SweepService
/// (whose run() it is the only caller of) and holds no pipeline or cache
/// of its own.
class JobScheduler {
public:
    /// Queued-job bound; submit() blocks once this many jobs wait
    /// (backpressure towards the wire reader).
    static constexpr std::size_t kMaxPending = 1024;

    /// Lifetime totals (all fields monotone except queue_depth).
    struct Stats {
        std::uint64_t submitted = 0;
        std::uint64_t completed = 0;
        std::uint64_t failed = 0;
        std::uint64_t cancelled = 0;
        std::uint64_t cache_hits = 0; ///< jobs served without a worker
        std::uint64_t goldens_prefetched = 0;
        std::size_t queue_depth = 0; ///< currently queued (excl. running)
    };

    explicit JobScheduler(SweepService& service);
    /// Finishes queued jobs as cancelled, cancels the running one and joins
    /// the dispatcher.
    ~JobScheduler();

    JobScheduler(const JobScheduler&) = delete;
    JobScheduler& operator=(const JobScheduler&) = delete;

    /// Enqueues one decoded job, placed by its wire `priority` and
    /// `client`, and calls sink->queued before returning (blocks only on a
    /// full queue). A submit-time cache hit streams through the sink, to
    /// finished, on this thread. Jobs carrying the verify_serial instrument
    /// bypass the cache in both directions.
    void submit(WireJob wire, std::shared_ptr<JobSink> sink);

    /// Wire-level cancel: a non-empty id cancels every queued AND the
    /// running job whose wire id matches; an empty id cancels only the
    /// running job (the legacy version-1 single-job semantics). Dequeued
    /// jobs are finished on this thread.
    void cancel(const std::string& wire_id);

    /// Pauses/resumes dispatch (queued jobs accumulate; the running job is
    /// unaffected). Deterministic-ordering tests need this.
    void set_paused(bool paused);

    /// Blocks until no job is queued or running, i.e. every job submitted
    /// before the call has returned from finished(). Never returns while
    /// paused with jobs queued.
    void wait_idle();

    [[nodiscard]] Stats stats() const;

private:
    struct Record;
    using RecordPtr = std::shared_ptr<Record>;
    using CachedUniverse = std::shared_ptr<const std::vector<SweepResult>>;

    void dispatcher_main() EXCLUDES(mutex_);
    /// Streams one job through its sink, from started() to finished():
    /// replays `hit` (a cached full universe under global member ids) when
    /// set, else runs the job on the service.
    void execute(Record& rec, const CachedUniverse& hit) EXCLUDES(mutex_);
    /// The service run behind execute(): results, verify_serial and the
    /// cache insert.
    void run_on_service(Record& rec, JobOutcome& out) EXCLUDES(mutex_);
    /// Counts the outcome into stats_, then calls the sink's finished().
    void finish(Record& rec, const JobOutcome& out) EXCLUDES(mutex_);
    /// Removes the queued jobs with wire id `wire_id` (every queued job for
    /// an empty id), returning them in submission order.
    [[nodiscard]] std::vector<RecordPtr>
    take_queued_locked(const std::string& wire_id) REQUIRES(mutex_);
    [[nodiscard]] RecordPtr pick_next_locked() REQUIRES(mutex_);
    [[nodiscard]] std::string job_cache_key(const WireJob& wire) const;

    SweepService& service_;
    const std::string pipeline_fp_; ///< empty = job caching off for this pipeline

    mutable Mutex mutex_; ///< queue + stats state below
    CondVar queue_cv_;    ///< wakes the dispatcher
    CondVar drained_cv_;  ///< a job left the queue or finished running
    /// Per-client queues, each kept sorted (priority desc, submit order).
    std::map<std::string, std::deque<RecordPtr>> queues_ GUARDED_BY(mutex_);
    std::map<std::string, std::uint64_t> last_served_ GUARDED_BY(mutex_);
    RecordPtr running_ GUARDED_BY(mutex_);
    std::size_t pending_ GUARDED_BY(mutex_) = 0;
    /// Submitted jobs whose finished() has not returned (wait_idle()).
    std::size_t unfinished_ GUARDED_BY(mutex_) = 0;
    bool paused_ GUARDED_BY(mutex_) = false;
    bool stopping_ GUARDED_BY(mutex_) = false;
    std::uint64_t next_submit_seq_ GUARDED_BY(mutex_) = 1;
    std::uint64_t serve_counter_ GUARDED_BY(mutex_) = 1;
    Stats stats_ GUARDED_BY(mutex_);

    std::thread dispatcher_thread_;
};

} // namespace xysig::server

#endif // XYSIG_SERVER_SCHEDULER_H
