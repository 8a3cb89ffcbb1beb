#include "server/scheduler.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <utility>

#include "common/contracts.h"
#include "common/strings.h"
#include "server/job_cache.h"

namespace xysig::server {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[nodiscard]] JobOutcome cancelled_outcome() {
    JobOutcome out;
    out.state = JobState::cancelled;
    return out;
}

} // namespace

/// One submitted job. Everything but the token is fixed before the record
/// is queued (submit_seq under mutex_), so no record needs a lock.
struct JobScheduler::Record {
    WireJob wire;
    std::shared_ptr<JobSink> sink;
    std::string cache_key; ///< "" = cache bypassed for this job
    std::uint64_t submit_seq = 0;
    Clock::time_point submitted_at;
    SweepCancelToken token; ///< internally atomic; poked from any thread
};

JobScheduler::JobScheduler(SweepService& service)
    : service_(service), pipeline_fp_(pipeline_fingerprint(service.pipeline())) {
    dispatcher_thread_ = std::thread([this] { dispatcher_main(); });
}

JobScheduler::~JobScheduler() {
    std::vector<RecordPtr> dequeued;
    {
        MutexLock lock(mutex_);
        stopping_ = true;
        dequeued = take_queued_locked("");
        if (running_ != nullptr)
            running_->token.cancel();
        queue_cv_.notify_all();
    }
    for (const RecordPtr& rec : dequeued)
        finish(*rec, cancelled_outcome());
    dispatcher_thread_.join();
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

void JobScheduler::submit(WireJob wire, std::shared_ptr<JobSink> sink) {
    XYSIG_EXPECTS(sink != nullptr);
    auto rec = std::make_shared<Record>();
    rec->wire = std::move(wire);
    rec->sink = std::move(sink);
    rec->submitted_at = Clock::now();
    rec->cache_key = job_cache_key(rec->wire);

    std::size_t position = 0;
    bool will_wait = false;
    {
        MutexLock lock(mutex_);
        ++stats_.submitted;
        ++unfinished_;
        position = pending_;
        will_wait = paused_ || pending_ > 0 || running_ != nullptr;
    }

    // Submit-time cache hit: stream on this thread without ever entering
    // the queue, so a resubmitted job never waits behind a running one.
    if (!rec->cache_key.empty()) {
        if (const CachedUniverse hit =
                JobResultCache::instance().find(rec->cache_key)) {
            rec->sink->queued(0, true);
            execute(*rec, hit);
            return;
        }
    }
    rec->sink->queued(position, false);

    // Golden prefetch: a behavioural job that will wait builds the pipeline
    // it will run under now, inserting the exact golden-cache key (mode
    // included) the dispatcher's job_pipeline call will look up — overlap
    // with zero effect on result bits. SPICE goldens have no cache key, so
    // there is nothing to warm.
    if (will_wait && !rec->wire.is_spice) {
        try {
            (void)service_.job_pipeline(rec->wire.job);
            MutexLock lock(mutex_);
            ++stats_.goldens_prefetched;
        } catch (const std::exception&) {
            // A golden that cannot be computed is reported by the job's own
            // run; prefetch is best-effort by design.
        }
    }

    MutexLock lock(mutex_);
    drained_cv_.wait(lock,
                     [&]() REQUIRES(mutex_) { return pending_ < kMaxPending; });
    rec->submit_seq = next_submit_seq_++;
    // Per-client queue kept sorted: priority descending, submit order
    // within a priority — inserting before the first strictly-lower
    // priority preserves FIFO among equals.
    std::deque<RecordPtr>& queue = queues_[rec->wire.client];
    const auto pos = std::find_if(queue.begin(), queue.end(),
                                  [&](const RecordPtr& other) {
                                      return other->wire.priority <
                                             rec->wire.priority;
                                  });
    queue.insert(pos, std::move(rec));
    ++pending_;
    queue_cv_.notify_all();
}

void JobScheduler::cancel(const std::string& wire_id) {
    std::vector<RecordPtr> dequeued;
    {
        MutexLock lock(mutex_);
        if (!wire_id.empty())
            dequeued = take_queued_locked(wire_id);
        if (running_ != nullptr &&
            (wire_id.empty() || running_->wire.id == wire_id))
            running_->token.cancel();
    }
    for (const RecordPtr& rec : dequeued)
        finish(*rec, cancelled_outcome());
}

void JobScheduler::set_paused(bool paused) {
    MutexLock lock(mutex_);
    paused_ = paused;
    queue_cv_.notify_all();
}

void JobScheduler::wait_idle() {
    MutexLock lock(mutex_);
    drained_cv_.wait(lock, [&]() REQUIRES(mutex_) { return unfinished_ == 0; });
}

JobScheduler::Stats JobScheduler::stats() const {
    MutexLock lock(mutex_);
    Stats s = stats_;
    s.queue_depth = pending_;
    return s;
}

std::vector<JobScheduler::RecordPtr>
JobScheduler::take_queued_locked(const std::string& wire_id) {
    std::vector<RecordPtr> taken;
    for (auto it = queues_.begin(); it != queues_.end();) {
        std::deque<RecordPtr>& queue = it->second;
        const auto kept = std::stable_partition(
            queue.begin(), queue.end(),
            [&](const RecordPtr& rec) {
                return !wire_id.empty() && rec->wire.id != wire_id;
            });
        std::move(kept, queue.end(), std::back_inserter(taken));
        queue.erase(kept, queue.end());
        it = queue.empty() ? queues_.erase(it) : std::next(it);
    }
    pending_ -= taken.size();
    drained_cv_.notify_all();
    // Finish them in submission order, whichever client queued them.
    std::sort(taken.begin(), taken.end(),
              [](const RecordPtr& a, const RecordPtr& b) {
                  return a->submit_seq < b->submit_seq;
              });
    return taken;
}

JobScheduler::RecordPtr JobScheduler::pick_next_locked() {
    // Highest priority wins; ties go to the least-recently-served client
    // (fair share), then to submit order. Client queues are individually
    // sorted, so each front() is its client's best candidate.
    auto best_queue = queues_.end();
    std::uint64_t best_served = 0;
    for (auto it = queues_.begin(); it != queues_.end(); ++it) {
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
        const int cp = cand->wire.priority;
        const int bp = best->wire.priority;
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
    drained_cv_.notify_all();
    return rec;
}

void JobScheduler::dispatcher_main() {
    MutexLock lock(mutex_);
    while (true) {
        queue_cv_.wait(lock, [&]() REQUIRES(mutex_) {
            return stopping_ || (!paused_ && pending_ > 0);
        });
        if (stopping_)
            return;
        const RecordPtr rec = pick_next_locked();
        running_ = rec; // until finish() reports it
        lock.Unlock();
        // Dispatch-time cache re-check: an identical job completed since
        // this one was queued (cold duplicates queued back-to-back).
        execute(*rec, rec->cache_key.empty()
                          ? nullptr
                          : JobResultCache::instance().find(rec->cache_key));
        lock.Lock();
    }
}

void JobScheduler::execute(Record& rec, const CachedUniverse& hit) {
    const WireJob& wire = rec.wire;
    JobOutcome out;
    out.queue_seconds = seconds_since(rec.submitted_at);
    try {
        rec.sink->started();
        if (hit != nullptr) {
            // The key fixes the universe, so its entry covers every slice.
            XYSIG_EXPECTS(wire.member_offset + wire.job.size() <= hit->size());
            const auto t0 = Clock::now();
            for (std::size_t i = 0; i < wire.job.size(); ++i) {
                SweepResult local = (*hit)[wire.member_offset + i];
                local.member_id = i; // stored under global ids
                rec.sink->result(local);
            }
            out.from_cache = true;
            out.summary.members_total = wire.job.size();
            out.summary.members_done = wire.job.size();
            out.summary.seconds = seconds_since(t0);
        } else {
            run_on_service(rec, out);
        }
    } catch (const std::exception& e) {
        out.error = e.what();
        out.state = JobState::failed;
    }
    finish(rec, out);
}

void JobScheduler::run_on_service(Record& rec, JobOutcome& out) {
    const WireJob& wire = rec.wire;
    // Only a full-universe run fills the cache: its entry serves the exact
    // resubmit and every member slice, so slices are never stored. Nor is
    // a universe heavier than the cache's byte ceiling: collection stops,
    // and frees its copy, as soon as the copy outweighs it.
    bool collect = !rec.cache_key.empty() && wire.member_offset == 0 &&
                   wire.job.size() == wire.universe_members;
    std::size_t collected_bytes = rec.cache_key.size();
    std::vector<SweepResult> collected;
    std::vector<double> streamed;
    if (collect)
        collected.reserve(std::min(wire.job.size(),
                                   JobResultCache::kWeightCeiling / sizeof(SweepResult)));
    if (wire.verify_serial)
        streamed.reserve(wire.job.size());
    out.summary = service_.run(
        wire.job,
        [&](const SweepResult& r) {
            if (collect) {
                collected_bytes += JobResultBytes::result_bytes(r);
                collect = collected_bytes <= JobResultCache::kWeightCeiling;
                if (collect)
                    collected.push_back(r);
                else
                    std::vector<SweepResult>().swap(collected);
            }
            if (wire.verify_serial)
                streamed.push_back(r.ndf);
            rec.sink->result(r);
        },
        &rec.token);
    const bool cancelled = out.summary.cancelled;
    out.state = cancelled ? JobState::cancelled : JobState::done;

    if (wire.verify_serial && cancelled) {
        out.verify_skipped_cancelled = true;
    } else if (wire.verify_serial) {
        const std::vector<double> reference =
            wire_serial_reference(wire, service_.job_pipeline(wire.job));
        out.verify_ran = true;
        out.verify_members = reference.size();
        out.verified = streamed.size() == reference.size();
        for (std::size_t i = 0; out.verified && i < reference.size(); ++i)
            out.verified = format_double_exact(streamed[i]) ==
                           format_double_exact(reference[i]);
    }

    if (collect && !cancelled && collected.size() == wire.job.size())
        JobResultCache::instance().insert(rec.cache_key,
                                          std::move(collected));
}

void JobScheduler::finish(Record& rec, const JobOutcome& out) {
    {
        MutexLock lock(mutex_);
        if (running_.get() == &rec)
            running_ = nullptr; // idle for submit()'s prefetch decision
        switch (out.state) {
        case JobState::done:
            ++stats_.completed;
            if (out.from_cache)
                ++stats_.cache_hits;
            break;
        case JobState::failed:
            ++stats_.failed;
            break;
        case JobState::cancelled:
            ++stats_.cancelled;
            break;
        }
    }
    rec.sink->finished(out);
    MutexLock lock(mutex_);
    --unfinished_;
    drained_cv_.notify_all();
}

} // namespace xysig::server
