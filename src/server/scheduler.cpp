#include "server/scheduler.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/contracts.h"
#include "common/strings.h"

namespace xysig::server {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

} // namespace

/// Shared job state: the scheduler produces into it, one consumer drains
/// it. `m` guards everything below it; the WireJob and submit metadata are
/// immutable after submit() and need no lock.
struct JobHandle::Record {
    WireJob wire;
    JobScheduler::SubmitOptions opts;
    std::string cache_key; ///< "" = cache bypassed for this job
    std::uint64_t submit_seq = 0;
    Clock::time_point submitted_at;

    Mutex m;
    CondVar cv;
    JobOutcome out GUARDED_BY(m);
    std::deque<SweepResult> results GUARDED_BY(m);
    bool closed GUARDED_BY(m) = false;    ///< no further results; final `out`
    bool accounted GUARDED_BY(m) = false; ///< terminal state counted once
    SweepCancelToken token; ///< internally atomic; poked from any thread
};

// ------------------------------------------------------------------ handle

bool JobHandle::next(SweepResult& out) {
    Record& r = *record_;
    MutexLock lock(r.m);
    r.cv.wait(lock, [&]() REQUIRES(r.m) { return !r.results.empty() || r.closed; });
    if (r.results.empty())
        return false;
    out = std::move(r.results.front());
    r.results.pop_front();
    return true;
}

void JobHandle::wait_until_started() {
    Record& r = *record_;
    MutexLock lock(r.m);
    r.cv.wait(lock,
              [&]() REQUIRES(r.m) { return r.out.state != JobState::queued; });
}

void JobHandle::cancel() {
    Record& r = *record_;
    MutexLock lock(r.m);
    if (r.out.state == JobState::queued) {
        // Finalise in place; the dispatcher skips (and accounts) the
        // record when it eventually pops it.
        r.out.state = JobState::cancelled;
        r.closed = true;
        r.cv.notify_all();
    } else if (r.out.state == JobState::running) {
        r.token.cancel();
    }
}

JobOutcome JobHandle::outcome() const {
    Record& r = *record_;
    MutexLock lock(r.m);
    XYSIG_EXPECTS(r.closed);
    return r.out;
}

bool JobHandle::from_cache() const {
    Record& r = *record_;
    MutexLock lock(r.m);
    return r.out.from_cache;
}

bool JobHandle::cancelled_before_start() const {
    Record& r = *record_;
    MutexLock lock(r.m);
    return r.closed && r.out.state == JobState::cancelled &&
           r.out.run_sequence == 0 && !r.out.from_cache && r.results.empty();
}

const WireJob& JobHandle::wire() const { return record_->wire; }

// --------------------------------------------------------------- scheduler

JobScheduler::JobScheduler(SweepService& service, Options options)
    : service_(service), options_(options),
      pipeline_fp_(options.cache_capacity == 0
                       ? std::string()
                       : pipeline_fingerprint(service.pipeline())) {
    cache_.set_capacity(std::max<std::size_t>(1, options.cache_capacity));
    dispatcher_thread_ = std::thread([this] { dispatcher_main(); });
    prefetch_thread_ = std::thread([this] { prefetch_main(); });
}

JobScheduler::~JobScheduler() {
    {
        MutexLock lock(mutex_);
        stopping_ = true;
        for (auto& [client, queue] : queues_) {
            for (const RecordPtr& rec : queue) {
                {
                    MutexLock rlock(rec->m);
                    if (rec->out.state == JobState::queued) {
                        rec->out.state = JobState::cancelled;
                        rec->closed = true;
                        rec->cv.notify_all();
                    }
                }
                account_terminal_locked(rec);
            }
        }
        queues_.clear();
        prefetch_queue_.clear();
        pending_ = 0;
        if (running_ != nullptr)
            running_->token.cancel();
        queue_cv_.notify_all();
        space_cv_.notify_all();
    }
    dispatcher_thread_.join();
    prefetch_thread_.join();
}

std::string JobScheduler::job_cache_key(const WireJob& wire) const {
    if (pipeline_fp_.empty() || wire.universe_key.empty())
        return {};
    if (wire.job.size() == 0)
        return {}; // nothing to serve; plan probes always hit the service
    if (wire.verify_serial)
        return {}; // the serial check must exercise the real engine
    // Key the mode the service will actually run the job under:
    // pipeline_fp_ only carries the base flag, and serving an exact job from
    // a fast_math job's results (or vice versa) would hand out values that
    // differ within the ULP tolerance.
    std::string key = pipeline_fp_;
    key += "|jfm=";
    key += service_.fast_math_for(wire.job) ? '1' : '0';
    key += "|job{";
    key += wire.universe_key;
    key += '}';
    return key;
}

JobHandle JobScheduler::submit(WireJob wire, SubmitOptions opts) {
    auto rec = std::make_shared<JobHandle::Record>();
    rec->wire = std::move(wire);
    rec->opts = std::move(opts);
    rec->submitted_at = Clock::now();
    rec->cache_key = job_cache_key(rec->wire);

    // Submit-time cache hit: stream without ever entering the queue, so a
    // resubmitted job interleaves with (and never waits behind) a draining
    // one.
    if (!rec->cache_key.empty()) {
        if (const auto hit = cache_.find(rec->cache_key)) {
            {
                MutexLock lock(mutex_);
                ++stats_.submitted;
            }
            serve_from_cache(rec, *hit);
            {
                MutexLock lock(mutex_);
                account_terminal_locked(rec);
            }
            return JobHandle(rec);
        }
    }

    MutexLock lock(mutex_);
    space_cv_.wait(lock, [&]() REQUIRES(mutex_) {
        return stopping_ || pending_ < options_.max_pending;
    });
    ++stats_.submitted;
    if (stopping_) {
        {
            MutexLock rlock(rec->m);
            rec->out.state = JobState::cancelled;
            rec->closed = true;
            rec->cv.notify_all();
        }
        account_terminal_locked(rec);
        return JobHandle(rec);
    }
    rec->submit_seq = next_submit_seq_++;
    // Per-client queue kept sorted: priority descending, submit order
    // within a priority — inserting before the first strictly-lower
    // priority preserves FIFO among equals.
    std::deque<RecordPtr>& queue = queues_[rec->opts.client];
    const auto pos = std::find_if(queue.begin(), queue.end(),
                                  [&](const RecordPtr& other) {
                                      return other->opts.priority <
                                             rec->opts.priority;
                                  });
    queue.insert(pos, rec);
    ++pending_;
    if (!rec->wire.is_spice)
        prefetch_queue_.push_back(rec);
    queue_cv_.notify_all();
    return JobHandle(rec);
}

void JobScheduler::cancel(const std::string& wire_id) {
    MutexLock lock(mutex_);
    if (!wire_id.empty()) {
        for (auto it = queues_.begin(); it != queues_.end();) {
            std::deque<RecordPtr>& queue = it->second;
            for (auto qi = queue.begin(); qi != queue.end();) {
                if ((*qi)->wire.id != wire_id) {
                    ++qi;
                    continue;
                }
                const RecordPtr rec = *qi;
                {
                    MutexLock rlock(rec->m);
                    if (rec->out.state == JobState::queued) {
                        rec->out.state = JobState::cancelled;
                        rec->closed = true;
                        rec->cv.notify_all();
                    }
                }
                account_terminal_locked(rec);
                qi = queue.erase(qi);
                --pending_;
            }
            it = queue.empty() ? queues_.erase(it) : std::next(it);
        }
        space_cv_.notify_all();
    }
    if (running_ != nullptr &&
        (wire_id.empty() || running_->wire.id == wire_id))
        running_->token.cancel();
}

void JobScheduler::set_paused(bool paused) {
    MutexLock lock(mutex_);
    paused_ = paused;
    queue_cv_.notify_all();
}

JobScheduler::Stats JobScheduler::stats() const {
    MutexLock lock(mutex_);
    Stats s = stats_;
    s.queue_depth = pending_;
    return s;
}

void JobScheduler::account_terminal_locked(const RecordPtr& rec) {
    MutexLock rlock(rec->m);
    if (rec->accounted || !rec->closed)
        return;
    rec->accounted = true;
    switch (rec->out.state) {
    case JobState::done:
        ++stats_.completed;
        if (rec->out.from_cache)
            ++stats_.cache_hits;
        break;
    case JobState::failed:
        ++stats_.failed;
        break;
    case JobState::cancelled:
        ++stats_.cancelled;
        break;
    case JobState::queued:
    case JobState::running:
        break; // unreachable: closed implies a terminal state
    }
}

JobScheduler::RecordPtr JobScheduler::pick_next_locked() {
    // Highest priority wins; ties go to the least-recently-served client
    // (fair share), then to submit order. Client queues are individually
    // sorted, so each front() is its client's best candidate.
    auto best_queue = queues_.end();
    std::uint64_t best_served = 0;
    for (auto it = queues_.begin(); it != queues_.end(); ++it) {
        if (it->second.empty())
            continue;
        const RecordPtr& cand = it->second.front();
        const auto served_it = last_served_.find(it->first);
        const std::uint64_t served =
            served_it == last_served_.end() ? 0 : served_it->second;
        if (best_queue == queues_.end()) {
            best_queue = it;
            best_served = served;
            continue;
        }
        const RecordPtr& best = best_queue->second.front();
        const int cp = cand->opts.priority;
        const int bp = best->opts.priority;
        if (cp > bp || (cp == bp && (served < best_served ||
                                     (served == best_served &&
                                      cand->submit_seq < best->submit_seq)))) {
            best_queue = it;
            best_served = served;
        }
    }
    XYSIG_EXPECTS(best_queue != queues_.end());
    RecordPtr rec = best_queue->second.front();
    best_queue->second.pop_front();
    // Bound the fairness bookkeeping: a stream of one-shot client ids must
    // not grow the map forever (resetting just forgets who was served).
    if (last_served_.size() > 4096)
        last_served_.clear();
    last_served_[best_queue->first] = serve_counter_++;
    if (best_queue->second.empty())
        queues_.erase(best_queue);
    --pending_;
    space_cv_.notify_all();
    return rec;
}

void JobScheduler::dispatcher_main() {
    while (true) {
        RecordPtr rec;
        {
            MutexLock lock(mutex_);
            queue_cv_.wait(lock, [&]() REQUIRES(mutex_) {
                return stopping_ || (!paused_ && pending_ > 0);
            });
            if (stopping_)
                return;
            rec = pick_next_locked();
            running_ = rec;
        }
        execute(rec);
        {
            MutexLock lock(mutex_);
            running_ = nullptr;
            account_terminal_locked(rec);
        }
    }
}

void JobScheduler::execute(const RecordPtr& rec) {
    {
        MutexLock lock(rec->m);
        if (rec->closed)
            return; // cancelled through its handle while queued
    }
    // Dispatch-time cache re-check: an identical job completed since this
    // one was queued (cold duplicates queued back-to-back).
    if (!rec->cache_key.empty()) {
        if (const auto hit = cache_.find(rec->cache_key)) {
            serve_from_cache(rec, *hit);
            return;
        }
    }

    // run_counter_ is mutex_ state; fetch the sequence number BEFORE taking
    // rec->m. Taking mutex_ while holding rec->m would invert the one
    // sanctioned lock order (mutex_ -> rec->m, see account_terminal_locked)
    // and could deadlock against the dispatcher/cancel paths.
    std::uint64_t run_seq = 0;
    {
        MutexLock lock(mutex_);
        run_seq = run_counter_++;
    }
    {
        MutexLock lock(rec->m);
        rec->out.state = JobState::running;
        rec->out.queue_seconds = seconds_since(rec->submitted_at);
        rec->out.run_sequence = run_seq;
        rec->cv.notify_all();
    }

    // Only a full-universe run fills the cache: its entry serves the exact
    // resubmit and every member slice, so slices are never stored. Nor is
    // a universe heavier than the cache's byte ceiling: collection stops,
    // and frees its copy, as soon as the copy outweighs it.
    bool collect = !rec->cache_key.empty() && rec->wire.member_offset == 0 &&
                   rec->wire.job.size() == rec->wire.universe_members;
    std::size_t collected_bytes = rec->cache_key.size();
    std::vector<SweepResult> collected;
    std::vector<double> streamed;
    if (collect)
        collected.reserve(std::min(rec->wire.job.size(),
                                   JobResultCache::kWeightCeiling / sizeof(SweepResult)));
    if (rec->wire.verify_serial)
        streamed.reserve(rec->wire.job.size());
    try {
        const JobSummary summary = service_.run(
            rec->wire.job,
            [&](const SweepResult& r) {
                if (collect) {
                    collected_bytes += JobResultBytes::result_bytes(r);
                    collect = collected_bytes <= JobResultCache::kWeightCeiling;
                    if (collect)
                        collected.push_back(r);
                    else
                        std::vector<SweepResult>().swap(collected);
                }
                if (rec->wire.verify_serial)
                    streamed.push_back(r.ndf);
                {
                    MutexLock lock(rec->m);
                    rec->results.push_back(r);
                    rec->cv.notify_all();
                }
            },
            &rec->token);

        bool verify_ran = false, verified = true, skipped = false;
        std::size_t verify_members = 0;
        if (rec->wire.verify_serial) {
            if (summary.cancelled) {
                skipped = true;
            } else {
                const std::vector<double> reference = wire_serial_reference(
                    rec->wire, service_.job_pipeline(rec->wire.job));
                verify_ran = true;
                verify_members = reference.size();
                verified = streamed.size() == reference.size();
                if (verified)
                    for (std::size_t i = 0; i < reference.size(); ++i)
                        verified = verified &&
                                   format_double_exact(streamed[i]) ==
                                       format_double_exact(reference[i]);
            }
        }

        if (collect && !summary.cancelled &&
            collected.size() == rec->wire.job.size())
            cache_.insert(rec->cache_key, std::move(collected));

        MutexLock lock(rec->m);
        rec->out.summary = summary;
        rec->out.verify_ran = verify_ran;
        rec->out.verified = verified;
        rec->out.verify_skipped_cancelled = skipped;
        rec->out.verify_members = verify_members;
        rec->out.state =
            summary.cancelled ? JobState::cancelled : JobState::done;
        rec->closed = true;
        rec->cv.notify_all();
    } catch (const std::exception& e) {
        MutexLock lock(rec->m);
        rec->out.error = e.what();
        rec->out.state = JobState::failed;
        rec->closed = true;
        rec->cv.notify_all();
    }
}

void JobScheduler::serve_from_cache(const RecordPtr& rec,
                                    const std::vector<SweepResult>& universe) {
    const std::size_t base = rec->wire.member_offset;
    const std::size_t count = rec->wire.job.size();
    // The key fixes the universe, so its entry covers every slice of it.
    XYSIG_EXPECTS(base + count <= universe.size());
    const auto t0 = Clock::now();
    {
        MutexLock lock(rec->m);
        if (rec->closed)
            return; // cancelled in the submit/dispatch window
        rec->out.state = JobState::running;
        rec->out.from_cache = true;
        rec->out.queue_seconds = seconds_since(rec->submitted_at);
        rec->cv.notify_all();
    }
    JobSummary summary;
    summary.members_total = count;
    summary.members_done = count;
    MutexLock lock(rec->m);
    for (std::size_t i = 0; i < count; ++i) {
        SweepResult local = universe[base + i]; // stored under global ids
        local.member_id = i;
        rec->results.push_back(std::move(local));
    }
    summary.seconds = seconds_since(t0);
    rec->out.summary = summary;
    rec->out.state = JobState::done;
    rec->closed = true;
    rec->cv.notify_all();
}

void JobScheduler::prefetch_main() {
    while (true) {
        RecordPtr rec;
        {
            MutexLock lock(mutex_);
            queue_cv_.wait(lock, [&]() REQUIRES(mutex_) {
                return stopping_ || !prefetch_queue_.empty();
            });
            if (stopping_)
                return;
            rec = prefetch_queue_.front();
            prefetch_queue_.pop_front();
        }
        // The same job_pipeline call the job makes when it runs inserts the
        // exact golden-cache key (mode included) that call will look up —
        // overlap with zero effect on result bits. (SPICE goldens have no
        // cache key, so there is nothing to warm; those records are
        // filtered at submit.)
        try {
            (void)service_.job_pipeline(rec->wire.job);
            MutexLock lock(mutex_);
            ++stats_.goldens_prefetched;
        } catch (const std::exception&) {
            // A golden the prefetcher cannot compute is the dispatcher's
            // problem to report; prefetch is best-effort by design.
        }
    }
}

} // namespace xysig::server
