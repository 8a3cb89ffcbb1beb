#ifndef XYSIG_SERVER_SCHEDULER_H
#define XYSIG_SERVER_SCHEDULER_H

/// \file scheduler.h
/// Queued multi-tenant job scheduler over one SweepService: the layer that
/// turns the blocking one-job-at-a-time `run()` call into a submit API.
///
///  * submit() returns immediately with a JobHandle; job N+1 is accepted
///    (and queued, prefetched, or served from cache) while job N is still
///    draining — per-job result queues decouple producers from consumers.
///  * Dispatch order is priority-descending, then fair-share round-robin
///    across client ids (the least-recently-served client wins a tie), then
///    FIFO within a client — a flood from one client cannot starve another
///    at equal priority, and a high-priority job can never be passed over
///    in favour of a lower-priority one (no priority inversion).
///  * Golden-signature computation for queued behavioural jobs overlaps the
///    current drain: a prefetch thread warms the process-wide
///    core::GoldenSignatureCache through SweepService::job_pipeline, so the
///    job's own job_pipeline call when it runs hits the cache
///    (bit-identically — the cache key scheme guarantees it) instead of
///    paying the golden on the critical path.
///  * A content-addressed JobResultCache (see job_cache.h) short-circuits
///    whole jobs: an exact resubmit — or any member-range slice of a cached
///    full universe — streams results without touching a worker.
///
/// Bit-identity contract: at ANY queue depth × worker count, every job's
/// result stream is in ascending member order and bit-identical to a serial
/// SweepService::run() of the same job (cache hits included: keys are exact
/// hexfloat fingerprints, so a hit replays the identical bits).
///
/// Thread-safety: submit()/cancel()/stats() are concurrently callable from
/// any thread; each JobHandle is drained by one consumer thread at a time.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/annotated_mutex.h"
#include "server/job_cache.h"
#include "server/sweep_service.h"
#include "server/wire.h"

namespace xysig::server {

class JobScheduler;

/// Terminal state of a scheduled job.
enum class JobState {
    queued,    ///< waiting for dispatch
    running,   ///< the service (or the cache streamer) is producing results
    done,      ///< completed; every member streamed
    failed,    ///< decoding/evaluation error; see JobOutcome::error
    cancelled, ///< cancelled while queued or running (partial stream)
};

/// What a drained job reports (valid once next() has returned false).
struct JobOutcome {
    JobState state = JobState::queued;
    bool from_cache = false; ///< served by the whole-job cache, no workers
    JobSummary summary;      ///< zeroed shards/clones for cache hits
    std::string error;       ///< non-empty iff state == failed
    /// verify_serial accounting (the serial reference runs after the job,
    /// against its own SweepService::job_pipeline).
    bool verify_ran = false;
    bool verified = true;
    bool verify_skipped_cancelled = false;
    std::size_t verify_members = 0;
    /// 1-based order in which the service actually ran jobs (0 = never ran:
    /// cache hit or cancelled while queued) — the fair-share/priority tests
    /// assert on this.
    std::uint64_t run_sequence = 0;
    double queue_seconds = 0.0; ///< submit -> first dispatch/cache-serve
};

/// One submitted job: a handle to its private result queue.
class JobHandle {
public:
    /// Blocking pop of the next result (ascending member order, local ids).
    /// Returns false once the stream is complete — then outcome() is final.
    bool next(SweepResult& out);

    /// Blocks until the job leaves the queued state (dispatch, cache serve,
    /// cancel or failure).
    void wait_until_started();

    /// Cooperative cancel: dequeues the job if still queued (it then
    /// finishes as cancelled without running), pokes its cancel token if
    /// running.
    void cancel();

    /// Final report; call after next() returned false (asserts otherwise).
    [[nodiscard]] JobOutcome outcome() const;

    /// True once the job is known to be served by the whole-job cache
    /// (immediately for submit-time hits); false while undecided.
    [[nodiscard]] bool from_cache() const;

    /// True iff the job was cancelled while still queued — it produced no
    /// results and the service never saw it (no job_start on the wire).
    [[nodiscard]] bool cancelled_before_start() const;

    /// The decoded job this handle tracks.
    [[nodiscard]] const WireJob& wire() const;

private:
    friend class JobScheduler;
    struct Record;
    explicit JobHandle(std::shared_ptr<Record> record)
        : record_(std::move(record)) {}

    std::shared_ptr<Record> record_;
};

/// The scheduler. Owns the dispatcher and prefetch threads and the job
/// cache; borrows the SweepService (whose run() it is the only caller of)
/// and holds no pipeline of its own.
class JobScheduler {
public:
    struct Options {
        /// Queued-job bound; submit() blocks once this many jobs wait
        /// (backpressure towards the wire reader).
        std::size_t max_pending = 1024;
        /// Whole-job result cache entries; 0 disables job caching.
        std::size_t cache_capacity = JobResultCache::kDefaultCapacity;
    };

    struct SubmitOptions {
        int priority = 0;   ///< higher runs first
        std::string client; ///< fair-share identity ("" = anonymous client)
    };

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

    // No `Options options = {}` default argument: NSDMIs of a nested class
    // are parsed only at the end of the outermost class, so the default
    // would not compile here (same gotcha as SweepJob's universe structs).
    explicit JobScheduler(SweepService& service)
        : JobScheduler(service, Options{}) {}
    JobScheduler(SweepService& service, Options options);
    ~JobScheduler(); ///< cancels queued+running jobs, joins threads

    JobScheduler(const JobScheduler&) = delete;
    JobScheduler& operator=(const JobScheduler&) = delete;

    /// Enqueues one decoded job and returns its handle immediately (blocks
    /// only on a full queue). Jobs carrying the verify_serial instrument
    /// bypass the cache in both directions.
    [[nodiscard]] JobHandle submit(WireJob wire) {
        return submit(std::move(wire), SubmitOptions{});
    }
    [[nodiscard]] JobHandle submit(WireJob wire, SubmitOptions opts);

    /// Wire-level cancel: a non-empty id cancels every queued AND the
    /// running job whose wire id matches; an empty id cancels only the
    /// running job (the legacy version-1 single-job semantics).
    void cancel(const std::string& wire_id);

    /// Pauses/resumes dispatch (queued jobs accumulate; the running job is
    /// unaffected). Deterministic-ordering tests and drain-for-maintenance
    /// both need this.
    void set_paused(bool paused);

    [[nodiscard]] Stats stats() const;
    [[nodiscard]] JobResultCache& cache() noexcept { return cache_; }
    [[nodiscard]] const JobResultCache& cache() const noexcept {
        return cache_;
    }

private:
    using RecordPtr = std::shared_ptr<JobHandle::Record>;

    void dispatcher_main() EXCLUDES(mutex_);
    void prefetch_main() EXCLUDES(mutex_);
    void execute(const RecordPtr& rec) EXCLUDES(mutex_);
    /// Streams the job's member slice out of `universe`, a cached
    /// full-universe result stream under global member ids.
    void serve_from_cache(const RecordPtr& rec,
                          const std::vector<SweepResult>& universe);
    /// Counts a closed record's terminal state into stats_ exactly once.
    /// Caller holds mutex_; takes the record's own lock (mutex_ -> rec->m
    /// is the one sanctioned lock order).
    void account_terminal_locked(const RecordPtr& rec) REQUIRES(mutex_);
    [[nodiscard]] RecordPtr pick_next_locked() REQUIRES(mutex_);
    [[nodiscard]] std::string job_cache_key(const WireJob& wire) const;

    SweepService& service_;
    Options options_;
    JobResultCache cache_;
    std::string pipeline_fp_; ///< empty = job caching off for this pipeline

    mutable Mutex mutex_; ///< queue + stats state below
    CondVar queue_cv_;
    CondVar space_cv_;
    /// Per-client queues, each kept sorted (priority desc, submit order).
    std::map<std::string, std::deque<RecordPtr>> queues_ GUARDED_BY(mutex_);
    std::map<std::string, std::uint64_t> last_served_ GUARDED_BY(mutex_);
    std::deque<RecordPtr> prefetch_queue_ GUARDED_BY(mutex_);
    RecordPtr running_ GUARDED_BY(mutex_);
    std::size_t pending_ GUARDED_BY(mutex_) = 0;
    bool paused_ GUARDED_BY(mutex_) = false;
    bool stopping_ GUARDED_BY(mutex_) = false;
    std::uint64_t next_submit_seq_ GUARDED_BY(mutex_) = 1;
    std::uint64_t serve_counter_ GUARDED_BY(mutex_) = 1;
    std::uint64_t run_counter_ GUARDED_BY(mutex_) = 1;
    Stats stats_ GUARDED_BY(mutex_);

    std::thread prefetch_thread_;
    std::thread dispatcher_thread_;
};

} // namespace xysig::server

#endif // XYSIG_SERVER_SCHEDULER_H
