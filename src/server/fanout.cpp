#include "server/fanout.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <thread>

#include "common/annotated_mutex.h"
#include "common/contracts.h"
#include "common/ordered_merge.h"
#include "common/strings.h"
#include "server/wire.h"

namespace xysig::server {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(const Clock::time_point& t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Read-poll slice: short enough that cancellation fan-out and abort are
/// prompt, long enough not to spin.
constexpr double kPollSliceSeconds = 0.05;

/// Deadline for a fresh peer's ready banner (a missed deadline costs one
/// dispatch attempt).
constexpr double kHandshakeTimeoutSeconds = 30.0;

/// Worker threads of the verify_single_process reference service; its
/// bits do not depend on the count (shards merge in member order).
constexpr unsigned kVerifyWorkers = 2;

/// Bounded integer field of a peer event (wire::index_field — peer stdout
/// is as untrusted as peer stdin).
[[nodiscard]] std::size_t size_field(const JsonValue& v, const char* key) {
    return index_field(v.at(key), key);
}

} // namespace

/// Everything the partition threads and the merging run() caller share.
struct FanoutDriver::Shared {
    /// One merge producer per partition thread.
    explicit Shared(std::size_t threads) : merge(threads) {}

    OrderedMerge<FanoutRecord> merge;
    JsonValue::Object base_job; ///< the job object, cloned per partition
    std::string base_id;
    SweepCancelToken* cancel = nullptr;
    std::atomic<bool> abort{false}; ///< failure or callback exception
    std::atomic<std::size_t> heartbeats{0}; ///< v3 liveness events seen

    [[nodiscard]] bool stop_requested() const noexcept {
        return abort.load(std::memory_order_relaxed) ||
               (cancel != nullptr && cancel->cancelled());
    }

    Mutex factory_mutex; ///< serialises TransportFactory invocations

    /// One dispatchable member range. Initially one per partition; work
    /// stealing appends more (a stolen tail is a new segment attributed
    /// to the victim partition). `end` only ever SHRINKS (when stolen
    /// from) and `next_needed` only ever grows, both under `mutex` —
    /// that monotonicity is what makes the steal split exact.
    struct Segment {
        std::size_t next_needed = 0;
        std::size_t end = 0;
        std::size_t partition = 0; ///< outcome this segment accounts to
        bool running = false;      ///< a thread is (or will be) serving it
    };

    Mutex mutex; ///< guards everything below
    bool failed GUARDED_BY(mutex) = false;
    std::string failure GUARDED_BY(mutex);
    /// From the first ready banner.
    std::size_t samples_per_period GUARDED_BY(mutex) = 0;
    std::vector<PartitionOutcome> outcomes GUARDED_BY(mutex);
    /// deque: steals append, references live.
    std::deque<Segment> segments GUARDED_BY(mutex);
    unsigned steals GUARDED_BY(mutex) = 0;

    void fail(const std::string& why) EXCLUDES(mutex) {
        abort.store(true, std::memory_order_relaxed);
        MutexLock lock(mutex);
        if (!failed) {
            failed = true;
            failure = why;
        }
    }

    /// Picks the slowest running range with a stealable tail, halves it,
    /// and appends the top half as a new running segment. Returns its
    /// index, or npos when nothing is worth stealing. Caller holds mutex.
    [[nodiscard]] std::size_t try_steal_locked(std::size_t threshold)
        REQUIRES(mutex) {
        // A 1-member tail cannot be split so that both sides keep work.
        const std::size_t min_tail = std::max<std::size_t>(threshold, 2);
        std::size_t victim = npos;
        std::size_t victim_tail = 0;
        for (std::size_t i = 0; i < segments.size(); ++i) {
            const Segment& s = segments[i];
            if (!s.running)
                continue;
            const std::size_t tail = s.end - s.next_needed;
            if (tail >= min_tail && tail > victim_tail) {
                victim = i;
                victim_tail = tail;
            }
        }
        if (victim == npos)
            return npos;
        Segment& v = segments[victim];
        const std::size_t mid = v.next_needed + (v.end - v.next_needed) / 2;
        Segment stolen;
        stolen.next_needed = mid;
        stolen.end = v.end;
        stolen.partition = v.partition;
        stolen.running = true;
        v.end = mid; // the victim stops at its first result >= mid
        segments.push_back(stolen);
        ++steals;
        ++outcomes[v.partition].steals;
        return segments.size() - 1;
    }

    static constexpr std::size_t npos = static_cast<std::size_t>(-1);
};

FanoutDriver::FanoutDriver(TransportFactory factory, FanoutOptions options)
    : factory_(std::move(factory)), options_(std::move(options)) {
    XYSIG_EXPECTS(factory_ != nullptr);
    XYSIG_EXPECTS(options_.partitions >= 1 || !options_.partition_starts.empty());
    XYSIG_EXPECTS(options_.max_attempts >= 1);
}

void FanoutDriver::partition_main(Shared& shared, std::size_t first_segment) {
    const auto t0 = Clock::now();
    std::size_t segment = first_segment;
    while (segment != Shared::npos) {
        serve_segment(shared, segment);
        MutexLock lock(shared.mutex);
        shared.segments[segment].running = false;
        segment = Shared::npos;
        if (options_.steal_threshold > 0 && !shared.stop_requested() &&
            !shared.failed)
            segment = shared.try_steal_locked(options_.steal_threshold);
    }

    {
        MutexLock lock(shared.mutex);
        // Wall-clock attributed to the thread's home partition: with
        // stealing on it includes time spent rescuing stragglers, which is
        // exactly the idle time stealing reclaims. Under the lock, like
        // every outcome a sibling thread may touch.
        shared.outcomes[first_segment].seconds = seconds_since(t0);
    }
    shared.merge.done();
}

void FanoutDriver::serve_segment(Shared& shared, std::size_t segment_index) {
    std::size_t partition = 0;
    std::size_t next_needed = 0;
    std::size_t end = 0;
    {
        MutexLock lock(shared.mutex);
        const Shared::Segment& seg = shared.segments[segment_index];
        partition = seg.partition;
        next_needed = seg.next_needed;
        end = seg.end;
    }
    // No cached reference into shared.outcomes here: the accounting entry
    // is shared with sibling threads, so every access goes through
    // shared.outcomes[partition] under shared.mutex.
    unsigned attempts = 0; ///< this segment's own dispatch budget
    bool done = next_needed >= end; // a tail stolen down to nothing
    std::string last_failure; ///< why the latest attempt failed

    while (!done) {
        if (shared.stop_requested()) {
            MutexLock lock(shared.mutex);
            shared.outcomes[partition].cancelled = true;
            break;
        }
        if (attempts >= options_.max_attempts) {
            shared.fail("fanout: partition " + std::to_string(partition) +
                        " exhausted " + std::to_string(options_.max_attempts) +
                        " dispatch attempts; last failure: " + last_failure);
            break;
        }
        ++attempts;
        {
            MutexLock lock(shared.mutex);
            ++shared.outcomes[partition].attempts;
        }
        std::unique_ptr<Transport> transport;
        try {
            MutexLock lock(shared.factory_mutex);
            transport = factory_();
        } catch (const std::exception& e) {
            // A factory that cannot produce a peer right now (connect
            // refused, resources) costs one attempt, like a peer that
            // died during handshake — it must not unwind this thread.
            last_failure = e.what();
            continue;
        }
        const std::string peer = transport->describe();

        // One read loop per dispatch. The peer's `ready` banner is its first
        // event — the one banner check, whatever the transport: its protocol
        // version and samples_per_period are pinned (the verify gate depends
        // on them) before any job is sent. Either mismatch is deterministic,
        // so it fails the run instead of costing attempts. Then results
        // stream into the merge until job_done, peer death or inactivity.
        const auto attempt_start = Clock::now();
        auto last_activity = attempt_start;
        bool dispatched = false;
        bool cancel_sent = false;
        std::size_t dispatch_end = 0;
        std::string cancel_line;
        std::string line;
        while (!done) {
            if (!dispatched && seconds_since(attempt_start) >=
                                   kHandshakeTimeoutSeconds) {
                last_failure = peer + " sent no ready banner within " +
                               format_double(kHandshakeTimeoutSeconds) + " s";
                break;
            }
            if (dispatched && shared.stop_requested() && !cancel_sent) {
                // Cooperative cancellation fan-out: ask, don't kill — the
                // peer finishes members in flight and reports a cancelled
                // job_done, so nothing evaluated is lost.
                (void)transport->send_line(cancel_line);
                cancel_sent = true;
            }
            const auto status = transport->read_line(line, kPollSliceSeconds);
            if (status == Transport::ReadStatus::closed) {
                last_failure = peer + (dispatched
                                           ? " closed mid-job"
                                           : " closed before the ready banner");
                break;
            }
            if (status == Transport::ReadStatus::timeout) {
                // Before the banner a stop request ends the attempt with
                // nothing sent.
                if (!dispatched && shared.stop_requested())
                    break;
                if (dispatched && options_.read_timeout_seconds > 0.0 &&
                    seconds_since(last_activity) >
                        options_.read_timeout_seconds) {
                    last_failure =
                        peer + " silent for more than " +
                        format_double(options_.read_timeout_seconds) + " s";
                    break;
                }
                continue;
            }
            last_activity = Clock::now();

            // Any malformed line — unparseable, wrong field types,
            // out-of-range counts or members — marks the peer dead (and
            // re-dispatches the remainder) rather than unwinding the
            // partition thread or corrupting the merge.
            try {
                const JsonValue event = JsonValue::parse(line);
                if (!dispatched) {
                    if (!event.is_object() ||
                        event.string_or("event", "") != "ready")
                        continue; // not the banner yet
                    const std::size_t version =
                        event.has("version") ? size_field(event, "version") : 1;
                    if (version < 1 ||
                        version > static_cast<std::size_t>(kProtocolVersion)) {
                        shared.fail("fanout: peer " + peer +
                                    " speaks protocol version " +
                                    std::to_string(version) +
                                    "; this build speaks 1 to " +
                                    std::to_string(kProtocolVersion));
                        break;
                    }
                    const std::size_t spp =
                        size_field(event, "samples_per_period");
                    bool mismatch = false;
                    {
                        // The range is re-read under the lock: a steal may
                        // have shrunk the end since the last attempt, and
                        // dispatching members another thread now owns would
                        // compute them twice.
                        MutexLock lock(shared.mutex);
                        if (shared.samples_per_period == 0)
                            shared.samples_per_period = spp;
                        else
                            mismatch = shared.samples_per_period != spp;
                        const Shared::Segment& seg =
                            shared.segments[segment_index];
                        next_needed = seg.next_needed;
                        dispatch_end = seg.end;
                    }
                    if (mismatch) {
                        shared.fail("fanout: workers disagree on "
                                    "samples_per_period — results would not "
                                    "be comparable");
                        break;
                    }
                    if (next_needed >= dispatch_end) {
                        done = true;
                        break;
                    }
                    // Driver-owned concerns are stripped: progress and
                    // verify_serial belong to direct sweep_server consumers,
                    // not to partitions. Cancels name the dispatched job, so
                    // the peer's scheduler stops it whether it is running or
                    // still queued behind other jobs.
                    const std::string job_id =
                        shared.base_id + "#p" + std::to_string(segment_index) +
                        "a" + std::to_string(attempts);
                    JsonValue::Object cancel;
                    cancel.emplace("cmd", "cancel");
                    cancel.emplace("id", job_id);
                    cancel_line = JsonValue(std::move(cancel)).dump();
                    JsonValue::Object job = shared.base_job;
                    JsonValue::Object members;
                    members.emplace("first", next_needed);
                    members.emplace("count", dispatch_end - next_needed);
                    job.insert_or_assign("members",
                                         JsonValue(std::move(members)));
                    job.insert_or_assign("id", job_id);
                    job.insert_or_assign("version", JsonValue(kProtocolVersion));
                    job.insert_or_assign("progress_every", JsonValue(0));
                    job.insert_or_assign("verify_serial", JsonValue(false));
                    if (!transport->send_line(JsonValue(std::move(job)).dump())) {
                        last_failure = peer + " closed before taking the job";
                        break;
                    }
                    dispatched = true;
                    continue;
                }
                if (!event.is_object())
                    throw InvalidInput("fanout: event line is not an object");
                const std::string kind = event.string_or("event", "");
                if (kind == "result") {
                    FanoutRecord record;
                    record.member = size_field(event, "member");
                    if (record.member < next_needed ||
                        record.member >= dispatch_end)
                        throw InvalidInput(
                            "fanout: result member outside the dispatched "
                            "range");
                    record.ndf_hex = event.at("ndf_hex").as_string();
                    record.ndf = std::strtod(record.ndf_hex.c_str(), nullptr);
                    record.label = event.string_or("label", "");
                    if (event.has("signature"))
                        record.signature = event.at("signature").as_string();
                    bool range_complete = false;
                    {
                        MutexLock lock(shared.mutex);
                        Shared::Segment& seg = shared.segments[segment_index];
                        if (record.member >= seg.end) {
                            // The tail from seg.end on was stolen while the
                            // peer was still computing it; every member this
                            // segment still owns has been delivered. The
                            // record is dropped, not merged — the thief owns
                            // it now, and merging both would double-deliver.
                            seg.next_needed = seg.end;
                            range_complete = true;
                        } else {
                            next_needed = record.member + 1;
                            seg.next_needed = next_needed;
                            ++shared.outcomes[partition].members_done;
                        }
                    }
                    if (range_complete) {
                        // Stop the peer from burning CPU on stolen members.
                        (void)transport->send_line(cancel_line);
                        (void)transport->send_line(R"({"cmd":"quit"})");
                        done = true;
                    } else {
                        // Outside the lock. A steal splits above
                        // seg.next_needed, which has just moved past this
                        // member, so no other segment publishes it.
                        const std::size_t member = record.member;
                        shared.merge.publish(member, std::move(record));
                    }
                } else if (kind == "heartbeat") {
                    // v3 liveness: receiving it already refreshed
                    // last_activity (that is its whole job); counted so
                    // tests can assert the channel was actually exercised.
                    shared.heartbeats.fetch_add(1, std::memory_order_relaxed);
                } else if (kind == "job_done") {
                    const bool job_cancelled = event.at("cancelled").as_bool();
                    std::size_t current_end = 0;
                    {
                        MutexLock lock(shared.mutex);
                        shared.outcomes[partition].netlist_clones +=
                            size_field(event, "netlist_clones");
                        current_end = shared.segments[segment_index].end;
                    }
                    if (job_cancelled) {
                        MutexLock lock(shared.mutex);
                        shared.outcomes[partition].cancelled = true;
                    } else if (next_needed < current_end) {
                        // >= current_end is complete: a steal may have
                        // shrunk the end below the range this peer was
                        // dispatched. A healthy, uncancelled peer must cover
                        // its whole range — a short stream is a protocol
                        // violation, and deterministic, so re-dispatching
                        // would loop.
                        shared.fail("fanout: partition " +
                                    std::to_string(partition) +
                                    " completed without covering its member "
                                    "range");
                    }
                    done = true;
                    (void)transport->send_line(R"({"cmd":"quit"})");
                } else if (kind == "error") {
                    // Job rejection is deterministic (schema/version/
                    // universe errors): retrying cannot help.
                    shared.fail("fanout: partition " +
                                std::to_string(partition) + " rejected by " +
                                peer + ": " +
                                event.string_or("message", "unknown error"));
                    done = true;
                }
                // ready / progress / stats / verify / pong: ignored.
            } catch (const std::exception& e) {
                // A peer emitting garbage is a dead peer.
                last_failure = (dispatched ? "malformed event from "
                                           : "malformed banner from ") +
                               peer + ": " + e.what();
                break;
            }
        }
        transport->shutdown();
        // A failed attempt loops: a stop request ends the segment at the
        // top, anything else re-dispatches [next_needed, end) — the received
        // prefix is contiguous, so nothing is recomputed or duplicated.
    }
}

FanoutSummary FanoutDriver::run(const std::string& job_line,
                                const ResultCallback& on_result,
                                SweepCancelToken* cancel) {
    return run(JsonValue::parse(job_line), on_result, cancel);
}

FanoutSummary FanoutDriver::run(const JsonValue& job,
                                const ResultCallback& on_result,
                                SweepCancelToken* cancel) {
    XYSIG_EXPECTS(on_result != nullptr);
    if (!job.is_object() || !job.has("job"))
        throw InvalidInput("fanout: expected a job object");
    if (job.has("members"))
        throw InvalidInput(
            "fanout: the driver owns member-range partitioning; a job with "
            "an explicit \"members\" range cannot be fanned out");

    // Decode the whole universe locally: validates the job up front and
    // yields the member count to partition over (plus the SweepJob the
    // verify gate re-runs).
    WireJob whole = parse_wire_job(job);
    const std::size_t total = whole.universe_members;

    // Resolve partition boundaries into [start, next_start) ranges.
    std::vector<std::size_t> starts = options_.partition_starts;
    if (starts.empty()) {
        const std::size_t p = std::max<unsigned>(options_.partitions, 1);
        const std::size_t base = total / p;
        const std::size_t remainder = total % p;
        std::size_t at = 0;
        for (std::size_t i = 0; i < p; ++i) {
            starts.push_back(at);
            at += base + (i < remainder ? 1 : 0);
        }
    } else {
        if (starts.front() != 0)
            throw InvalidInput("fanout: partition_starts must begin at 0");
        for (std::size_t i = 0; i < starts.size(); ++i) {
            if (starts[i] > total)
                throw InvalidInput(
                    "fanout: partition start past the universe end");
            if (i > 0 && starts[i] < starts[i - 1])
                throw InvalidInput("fanout: partition_starts must ascend");
        }
    }

    // One thread per non-empty partition.
    std::vector<std::size_t> member_counts(starts.size(), 0);
    for (std::size_t i = 0; i < starts.size(); ++i)
        member_counts[i] =
            (i + 1 < starts.size() ? starts[i + 1] : total) - starts[i];
    Shared shared(static_cast<std::size_t>(
        std::count_if(member_counts.begin(), member_counts.end(),
                      [](std::size_t count) { return count > 0; })));
    shared.base_job = job.as_object();
    shared.base_id = whole.id.empty() ? "fanout" : whole.id;
    shared.cancel = cancel;
    {
        MutexLock lock(shared.mutex);
        shared.outcomes.resize(starts.size());
        for (std::size_t i = 0; i < starts.size(); ++i) {
            PartitionOutcome& out = shared.outcomes[i];
            out.partition = i;
            out.first_member = starts[i];
            out.member_count = member_counts[i];

            Shared::Segment seg;
            seg.next_needed = out.first_member;
            seg.end = out.first_member + out.member_count;
            seg.partition = i;
            seg.running = out.member_count > 0;
            shared.segments.push_back(seg);
        }
    }

    FanoutSummary summary;
    summary.members_total = total;
    if (options_.read_timeout_seconds <= 0.0)
        summary.warnings.push_back(
            "read_timeout_seconds is 0: a worker that wedges without closing "
            "its socket will hang the run forever — set an "
            "inactivity timeout (server heartbeats keep slow-but-alive "
            "workers from being shot)");

    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < member_counts.size(); ++i)
        if (member_counts[i] > 0)
            threads.emplace_back(
                [this, &shared, i] { partition_main(shared, i); });

    // Delivery on this thread through the merge: ascending global member
    // order, contiguous from 0 while partitions run, then (after a cancel
    // or a failure) whatever else was merged, still ascending with gaps —
    // the same contract as SweepService::run.
    std::vector<FanoutRecord> merged; // kept for the verify gate
    std::size_t delivered = 0;
    try {
        shared.merge.deliver([&](FanoutRecord&& record) {
            on_result(record);
            ++delivered;
            if (options_.verify_single_process)
                merged.push_back(std::move(record));
        });
    } catch (...) {
        shared.abort.store(true, std::memory_order_relaxed);
        for (std::thread& t : threads)
            t.join();
        throw;
    }
    for (std::thread& t : threads)
        t.join();

    {
        // Every partition thread is joined, but steals/outcomes are still
        // guarded state — read them under the same lock that wrote them
        // (also the memory fence the join already provides, made explicit).
        MutexLock lock(shared.mutex);
        if (shared.failed)
            throw Error(shared.failure);
        summary.samples_per_period = shared.samples_per_period;
        summary.steals = shared.steals;
        summary.partitions = std::move(shared.outcomes);
    }

    summary.seconds = seconds_since(t0);
    summary.members_done = delivered;
    summary.cancelled = cancel != nullptr && cancel->cancelled();
    summary.heartbeats = shared.heartbeats.load(std::memory_order_relaxed);
    double sum = 0.0;
    std::size_t busy = 0;
    for (const PartitionOutcome& out : summary.partitions) {
        summary.netlist_clones += out.netlist_clones;
        // Every dispatched segment (the original range plus one per steal)
        // legitimately consumes one attempt; anything beyond that was a
        // death/timeout recovery.
        const unsigned expected =
            out.member_count > 0 ? 1 + out.steals : 0;
        summary.redispatches +=
            out.attempts > expected ? out.attempts - expected : 0;
        if (out.member_count == 0)
            continue;
        ++busy;
        sum += out.seconds;
        summary.partition_seconds_min =
            (busy == 1) ? out.seconds
                        : std::min(summary.partition_seconds_min, out.seconds);
        summary.partition_seconds_max =
            std::max(summary.partition_seconds_max, out.seconds);
    }
    summary.partition_seconds_mean =
        busy == 0 ? 0.0 : sum / static_cast<double>(busy);

    // verify_single_process: the merged multi-process stream must be
    // bit-identical — exact hexfloat NDFs, exact signature strings — to one
    // in-process SweepService::run over the same universe.
    if (options_.verify_single_process && !summary.cancelled) {
        summary.verify_ran = true;
        SweepServiceOptions sopts;
        sopts.workers = kVerifyWorkers;
        SweepService reference(
            make_paper_pipeline(summary.samples_per_period != 0
                                    ? summary.samples_per_period
                                    : 512),
            sopts);
        bool identical = merged.size() == total;
        std::size_t i = 0;
        (void)reference.run(whole.job, [&](const SweepResult& r) {
            if (i < merged.size()) {
                const FanoutRecord& record = merged[i];
                identical =
                    identical && record.member == r.member_id &&
                    record.ndf_hex == format_double_exact(r.ndf) &&
                    (!whole.emit_signatures ||
                     (record.signature.has_value() ==
                          r.signature.has_value() &&
                      (!record.signature.has_value() ||
                       *record.signature == signature_string(*r.signature))));
            } else {
                identical = false;
            }
            ++i;
        });
        summary.verify_identical = identical && i == merged.size();
    }
    return summary;
}

} // namespace xysig::server
