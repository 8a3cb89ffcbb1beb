// JobScheduler guarantees: queued submission with per-job event sinks
// whose result streams stay ascending and bit-identical to a serial
// SweepService::run() at any queue depth, the sink call order (queued,
// started, results, finished — stats and cache already updated), fair-share
// round-robin across client ids, strict priority ordering (no inversion),
// whole-job cache hits that stream with zero netlist clones, golden
// prefetch on the submitting thread, and clean cancellation of queued and
// running jobs — including scheduler teardown with a backlog. The
// ServerSession tests pin the wire side: no thread per queued job, and a
// stalled reader holds back every queued job instead of buffering it.

#include "server/scheduler.h"

#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include <unistd.h>

#include "common/annotated_mutex.h"
#include "common/strings.h"
#include "core/golden_cache.h"
#include "core/paper_setup.h"
#include "core/trace_cache.h"
#include "server/job_cache.h"
#include "server/json.h"
#include "server/wire.h"
#include "spice/netlist.h"
#include "support/server_helpers.h"

namespace xysig::server {
namespace {

/// The whole-job cache is process-wide: every test starts from an empty
/// one, so a job an earlier test ran is not served from its entry.
class ClearJobCacheAtTestStart final : public ::testing::EmptyTestEventListener {
    void OnTestStart(const ::testing::TestInfo& /*test*/) override {
        JobResultCache::instance().clear();
    }
};
[[maybe_unused]] const bool kJobCacheClearedPerTest = [] {
    ::testing::UnitTest::GetInstance()->listeners().Append(
        new ClearJobCacheAtTestStart);
    return true;
}();

WireJob wire_job(const std::string& line) {
    return parse_wire_job(JsonValue::parse(line));
}

/// Records one job's sink calls and checks their order: queued, started,
/// strictly ascending results, finished. The scheduler calls it from its
/// own threads; tests read it after wait_idle() (or after the call that
/// finished the job on the test thread), whose lock hand-off orders every
/// sink call before the read.
struct Recorder final : JobSink {
    std::size_t tag = 0;
    std::vector<std::size_t>* start_log = nullptr; ///< tags in started() order
    std::function<void(const SweepResult&)> on_result;
    std::function<void(const JobOutcome&)> on_finished;

    bool was_queued = false;
    bool cached = false;
    bool was_started = false;
    std::vector<SweepResult> results;
    std::optional<JobOutcome> outcome;
    std::thread::id finished_on;
    std::string violation; ///< first out-of-order call, if any

    void queued(std::size_t, bool from_cache) override {
        if (was_queued || was_started || outcome)
            note("queued after another call");
        was_queued = true;
        cached = from_cache;
    }
    void started() override {
        if (!was_queued || was_started || outcome)
            note("started out of order");
        was_started = true;
        if (start_log != nullptr)
            start_log->push_back(tag);
    }
    void result(const SweepResult& r) override {
        if (!was_started || outcome)
            note("result outside started..finished");
        if (!results.empty() && r.member_id <= results.back().member_id)
            note("result ids not ascending");
        results.push_back(r);
        if (on_result)
            on_result(r);
    }
    void finished(const JobOutcome& out) override {
        if (!was_queued || outcome)
            note("finished out of order");
        outcome = out;
        finished_on = std::this_thread::get_id();
        if (on_finished)
            on_finished(out);
    }

private:
    void note(const char* what) {
        if (violation.empty())
            violation = what;
    }
};

std::shared_ptr<Recorder> submit(JobScheduler& sched, const std::string& line,
                                 std::size_t tag = 0,
                                 std::vector<std::size_t>* start_log = nullptr) {
    auto rec = std::make_shared<Recorder>();
    rec->tag = tag;
    rec->start_log = start_log;
    sched.submit(wire_job(line), rec);
    return rec;
}

/// A finished job whose calls kept the sink contract.
void expect_finished(const Recorder& rec, JobState state,
                     const std::string& what) {
    EXPECT_EQ(rec.violation, "") << what;
    ASSERT_TRUE(rec.outcome.has_value()) << what;
    EXPECT_EQ(rec.outcome->state, state) << what;
}

/// Runs session.serve over a pipe holding `lines` and then EOF, so serve
/// returns once every line is handled (without draining the jobs).
void serve_lines(ServerSession& session,
                 const std::vector<std::string>& lines) {
    int fds[2] = {-1, -1};
    ASSERT_EQ(::pipe(fds), 0);
    std::string bytes;
    for (const std::string& line : lines)
        bytes += line + "\n";
    ASSERT_EQ(::write(fds[1], bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
    ::close(fds[1]);
    session.serve(fds[0]);
    ::close(fds[0]);
}

/// Serial reference of a decoded job straight through the service — the
/// stream every scheduled variant must reproduce bit for bit.
std::vector<SweepResult> serial_reference(SweepService& service,
                                          const WireJob& wire) {
    std::vector<SweepResult> out;
    (void)service.run(wire.job,
                      [&](const SweepResult& r) { out.push_back(r); });
    return out;
}

void expect_same_stream(const std::vector<SweepResult>& got,
                        const std::vector<SweepResult>& want,
                        const std::string& what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].member_id, want[i].member_id) << what << " #" << i;
        EXPECT_TRUE(same_bits(got[i].ndf, want[i].ndf))
            << what << " #" << i << ": "
            << format_double_exact(got[i].ndf) << " vs "
            << format_double_exact(want[i].ndf);
        EXPECT_EQ(got[i].label, want[i].label) << what << " #" << i;
        EXPECT_EQ(got[i].signature.has_value(), want[i].signature.has_value())
            << what << " #" << i;
    }
}

TEST(JobScheduler, FairShareRoundRobinAcrossClients) {
    SweepService service(make_pipeline(), {.workers = 2});
    JobScheduler sched(service);
    sched.set_paused(true);

    // Client A floods four jobs before B and C submit two each. Each job
    // has its own deviation list, so none is served by the whole-job cache:
    // this ordering test needs every job to really run.
    std::vector<std::size_t> start_order;
    std::vector<std::shared_ptr<Recorder>> jobs;
    for (const char* client : {"A", "A", "A", "A", "B", "B", "C", "C"})
        jobs.push_back(submit(
            sched,
            R"({"job":"deviations","deviations":[-5,)" +
                std::to_string(jobs.size() + 1) + R"(],"client":")" + client +
                "\"}",
            jobs.size(), &start_order));
    EXPECT_EQ(sched.stats().queue_depth, 8u);
    sched.set_paused(false);
    sched.wait_idle();

    for (const auto& job : jobs) {
        expect_finished(*job, JobState::done, "job " + std::to_string(job->tag));
        EXPECT_EQ(job->results.size(), 2u);
    }
    // Round-robin across A, B, C at equal priority — A's flood cannot
    // starve B or C: A1 B1 C1 A2 B2 C2 A3 A4.
    EXPECT_EQ(start_order,
              (std::vector<std::size_t>{0, 4, 6, 1, 5, 7, 2, 3}));
    const auto stats = sched.stats();
    EXPECT_EQ(stats.submitted, 8u);
    EXPECT_EQ(stats.completed, 8u);
    EXPECT_EQ(stats.cache_hits, 0u);
    EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(JobScheduler, PriorityOrdersDispatchWithoutInversion) {
    SweepService service(make_pipeline(), {.workers = 2});
    JobScheduler sched(service);
    sched.set_paused(true);

    // Submission order deliberately scrambles priorities, and the flood
    // client's low-priority backlog precedes the high-priority late job:
    // fairness must never override priority. Each job has its own
    // deviation list, so every one really runs (no whole-job cache hit).
    const std::vector<std::pair<int, std::string>> specs = {
        {0, "flood"}, {0, "flood"}, {5, "flood"}, {-3, "background"},
        {5, "late"}}; // the last arrives last, still beats the 0s
    std::vector<std::size_t> start_order;
    for (std::size_t i = 0; i < specs.size(); ++i)
        (void)submit(sched,
                     R"({"job":"deviations","deviations":[-5,)" +
                         std::to_string(i + 1) + R"(],"priority":)" +
                         std::to_string(specs[i].first) + R"(,"client":")" +
                         specs[i].second + "\"}",
                     i, &start_order);
    sched.set_paused(false);
    sched.wait_idle();
    EXPECT_EQ(sched.stats().cache_hits, 0u);

    ASSERT_EQ(start_order.size(), specs.size());
    std::vector<std::size_t> rank(specs.size());
    for (std::size_t r = 0; r < start_order.size(); ++r)
        rank[start_order[r]] = r;
    // No inversion: for every pair queued together, the strictly-higher
    // priority ran strictly earlier.
    for (std::size_t i = 0; i < specs.size(); ++i)
        for (std::size_t j = 0; j < specs.size(); ++j)
            if (specs[i].first > specs[j].first)
                EXPECT_LT(rank[i], rank[j]) << i << " vs " << j;
    // FIFO among the equal-priority pair from one client.
    EXPECT_LT(rank[0], rank[1]);
    // The two priority-5 jobs run 1st/2nd, the -3 job dead last.
    EXPECT_EQ(rank[3], 4u);
}

TEST(JobScheduler, ExactSpiceResubmitStreamsFromCacheWithZeroClones) {
    SweepService service(make_pipeline(), {.workers = 3});
    ASSERT_FALSE(pipeline_fingerprint(service.pipeline()).empty());
    JobScheduler sched(service);

    const std::string line = R"({"job":"spice_faults","id":"s1"})";
    auto first = std::make_shared<Recorder>();
    // The stats accounting and the cache insert happen before finished().
    std::optional<JobScheduler::Stats> stats_at_finish;
    std::size_t cache_size_at_finish = 0;
    first->on_finished = [&](const JobOutcome&) {
        stats_at_finish = sched.stats();
        cache_size_at_finish = JobResultCache::instance().size();
    };
    sched.submit(wire_job(line), first);
    sched.wait_idle();
    expect_finished(*first, JobState::done, "first run");
    EXPECT_FALSE(first->cached);
    EXPECT_FALSE(first->outcome->from_cache);
    ASSERT_TRUE(stats_at_finish.has_value());
    EXPECT_EQ(stats_at_finish->completed, 1u);
    EXPECT_EQ(cache_size_at_finish, 1u);
    const std::vector<SweepResult>& reference = first->results;
    ASSERT_FALSE(reference.empty());
    bool any_nan = false;
    for (const SweepResult& r : reference)
        any_nan = any_nan || std::isnan(r.ndf);
    EXPECT_TRUE(any_nan); // the universe contains unsolvable members

    // Exact resubmit: bit-identical replay, no queue wait, no worker — the
    // netlist clone counter must not move at all (decoded up front so the
    // probe brackets only the submit-and-stream window). A submit-time hit
    // streams to finished() on the submitting thread before submit returns.
    WireJob resubmit = wire_job(line);
    const std::uint64_t clones_before = spice::Netlist::clone_count();
    auto again = std::make_shared<Recorder>();
    sched.submit(std::move(resubmit), again);
    EXPECT_EQ(spice::Netlist::clone_count(), clones_before);
    expect_finished(*again, JobState::done, "cached resubmit");
    EXPECT_TRUE(again->cached);
    EXPECT_EQ(again->finished_on, std::this_thread::get_id());
    expect_same_stream(again->results, reference, "cached spice resubmit");
    EXPECT_TRUE(again->outcome->from_cache);
    EXPECT_EQ(again->outcome->summary.netlist_clones, 0u);
    EXPECT_EQ(service.stats().jobs, 1u); // never touched the service

    const auto stats = sched.stats();
    EXPECT_EQ(stats.submitted, 2u);
    EXPECT_EQ(stats.completed, 2u);
    EXPECT_EQ(stats.cache_hits, 1u);
    EXPECT_EQ(JobResultCache::instance().hits(), 1u);
}

TEST(JobScheduler, MemberRangeSliceServedByCachedSuperset) {
    SweepService service(make_pipeline(), {.workers = 2});
    JobScheduler sched(service);
    const std::string full_line =
        R"({"job":"deviations","grid":{"from":-20,"to":20,"count":11}})";

    // A slice of a universe nobody has run yet runs for real, and is not
    // stored: only full-universe results enter the cache.
    auto cold_slice = submit(sched,
        R"({"job":"deviations","grid":{"from":-20,"to":20,"count":11},"members":{"first":1,"count":2}})");
    sched.wait_idle();
    EXPECT_FALSE(cold_slice->cached);
    EXPECT_EQ(cold_slice->results.size(), 2u);
    EXPECT_EQ(JobResultCache::instance().size(), 0u);

    auto full = submit(sched, full_line);
    sched.wait_idle();
    EXPECT_FALSE(full->cached);
    const std::vector<SweepResult>& reference = full->results;
    ASSERT_EQ(reference.size(), 11u);
    EXPECT_EQ(JobResultCache::instance().size(), 1u);

    // Slices of the SAME universe (grid spelled as the explicit list — the
    // content key is over materialised values) are served by indexing the
    // full entry, under local ids; the cold slice's range is among them.
    const std::string list_line =
        R"({"job":"deviations","deviations":[-20,-16,-12,-8,-4,0,4,8,12,16,20],"members":{"first":)";
    for (const auto& [first, count] :
         std::vector<std::pair<std::size_t, std::size_t>>{{3, 4}, {1, 2}, {10, 1}}) {
        auto slice = submit(sched, list_line + std::to_string(first) +
                                       R"(,"count":)" + std::to_string(count) +
                                       "}}");
        EXPECT_TRUE(slice->cached) << first << "+" << count;
        expect_finished(*slice, JobState::done, "slice");
        ASSERT_EQ(slice->results.size(), count);
        for (std::size_t i = 0; i < count; ++i) {
            EXPECT_EQ(slice->results[i].member_id, i); // local ids on the wire
            EXPECT_TRUE(same_bits(slice->results[i].ndf, reference[first + i].ndf));
            EXPECT_EQ(slice->results[i].label, reference[first + i].label);
        }
    }
    EXPECT_EQ(JobResultCache::instance().size(), 1u);

    // A different universe runs for real (and then has its own entry).
    auto wider = submit(sched,
        R"({"job":"deviations","grid":{"from":-20,"to":20,"count":12}})");
    sched.wait_idle();
    EXPECT_FALSE(wider->cached);
    EXPECT_EQ(wider->results.size(), 12u);
    EXPECT_EQ(sched.stats().cache_hits, 3u);
    EXPECT_EQ(JobResultCache::instance().size(), 2u);
}

TEST(JobScheduler, JobOverTheByteCeilingStreamsButIsNotCached) {
    // spp 64 keeps members cheap; 30000 of them outweigh the 8 MiB ceiling.
    SweepService service(make_pipeline({.samples_per_period = 64}), {.workers = 2});
    const std::string big_line =
        R"({"job":"deviations","grid":{"from":-30,"to":30,"count":30000}})";
    const std::vector<SweepResult> reference =
        serial_reference(service, wire_job(big_line));
    ASSERT_GT(JobResultBytes::weigh("", reference), JobResultCache::kWeightCeiling);

    JobScheduler sched(service);
    const std::string small_line =
        R"({"job":"deviations","grid":{"from":-20,"to":20,"count":9}})";
    auto small = submit(sched, small_line);
    auto big = submit(sched, big_line);
    sched.wait_idle();
    EXPECT_EQ(small->results.size(), 9u);
    EXPECT_FALSE(big->cached);
    expect_finished(*big, JobState::done, "over-ceiling job");
    expect_same_stream(big->results, reference, "over-ceiling job");
    EXPECT_EQ(JobResultCache::instance().size(), 1u); // the small job only
    EXPECT_LE(JobResultCache::instance().weight(), JobResultCache::kWeightCeiling);

    // The resubmit runs on workers again, bit-identically; the small job
    // still hits.
    auto again = submit(sched, big_line);
    sched.wait_idle();
    EXPECT_FALSE(again->cached);
    expect_same_stream(again->results, reference, "over-ceiling resubmit");
    auto small_again = submit(sched, small_line);
    EXPECT_TRUE(small_again->cached);
    EXPECT_EQ(small_again->results.size(), 9u);
    EXPECT_EQ(sched.stats().cache_hits, 1u);
    EXPECT_EQ(JobResultCache::instance().size(), 1u);
}

TEST(JobScheduler, InterleavedQueueBitIdenticalToSerialIncludingNaNs) {
    SweepService service(make_pipeline(), {.workers = 3});
    // References first, straight through the service (the scheduler is not
    // constructed yet, so nothing interleaves with these).
    const std::vector<std::string> lines = {
        R"({"job":"deviations","id":"d1","grid":{"from":-20,"to":20,"count":60})",
        R"({"job":"spice_faults","id":"s1","universe":"open")",
        R"({"job":"deviations","id":"d2","parameter":"q","grid":{"from":-15,"to":15,"count":45})",
        R"({"job":"deviations","id":"d1-again","grid":{"from":-20,"to":20,"count":60})",
        R"({"job":"deviations","id":"d3","deviations":[-7,-3,3,7])",
    };
    std::vector<std::vector<SweepResult>> references;
    for (const std::string& line : lines)
        references.push_back(serial_reference(service, wire_job(line + "}")));

    // Queue everything at once from two clients with mixed priorities.
    JobScheduler sched(service);
    std::vector<std::shared_ptr<Recorder>> jobs;
    for (std::size_t i = 0; i < lines.size(); ++i)
        jobs.push_back(submit(sched, lines[i] + R"(,"client":")" +
                                         (i % 2 == 0 ? "alice" : "bob") +
                                         R"(","priority":)" +
                                         std::to_string(i % 3) + "}"));
    sched.wait_idle();

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        expect_finished(*jobs[i], JobState::done, lines[i]);
        expect_same_stream(jobs[i]->results, references[i], "job " + lines[i]);
        // Ascending, gap-free member order per job regardless of queue
        // interleaving.
        for (std::size_t m = 0; m < jobs[i]->results.size(); ++m)
            ASSERT_EQ(jobs[i]->results[m].member_id, m) << lines[i];
    }
    // Of the two identical d1 jobs, whichever the priority/fair-share
    // order dispatched second was served by the cache (the dispatch-time
    // re-check) — and its stream was still bit-identical above.
    EXPECT_NE(jobs[0]->outcome->from_cache, jobs[3]->outcome->from_cache);
    EXPECT_GE(sched.stats().cache_hits, 1u);
}

TEST(JobScheduler, QueuedJobsCancelByIdWithoutRunning) {
    SweepService service(make_pipeline(), {.workers = 2});
    JobScheduler sched(service);
    sched.set_paused(true);

    auto keep = submit(sched,
        R"({"job":"deviations","id":"keep","deviations":[-5,5]})");
    auto h = submit(sched, R"({"job":"deviations","id":"h","deviations":[-5,5]})");
    auto w = submit(sched, R"({"job":"deviations","id":"w","deviations":[-5,5]})");
    sched.cancel("h");
    sched.cancel("w");
    // Dequeued and finished on the cancelling thread, before cancel()
    // returned, and already counted.
    EXPECT_EQ(sched.stats().queue_depth, 1u);
    EXPECT_EQ(sched.stats().cancelled, 2u);
    for (const auto* job : {h.get(), w.get()}) {
        expect_finished(*job, JobState::cancelled, "dequeued");
        EXPECT_FALSE(job->was_started); // the service never saw it
        EXPECT_TRUE(job->results.empty());
        EXPECT_EQ(job->finished_on, std::this_thread::get_id());
    }
    sched.set_paused(false);
    sched.wait_idle();

    expect_finished(*keep, JobState::done, "keep");
    EXPECT_EQ(keep->results.size(), 2u);
    EXPECT_EQ(service.stats().jobs, 1u);
    const auto stats = sched.stats();
    EXPECT_EQ(stats.cancelled, 2u);
    EXPECT_EQ(stats.completed, 1u);
}

TEST(JobScheduler, CancelFromInsideResultStopsTheRunningJobInOrder) {
    SweepService service(make_pipeline(), {.workers = 4});
    JobScheduler sched(service);

    // The sink cancels its own job by wire id after five results — from the
    // dispatcher thread, which holds no scheduler lock while it calls out.
    auto big = std::make_shared<Recorder>();
    big->on_result = [&](const SweepResult&) {
        if (big->results.size() == 5)
            sched.cancel("big");
    };
    sched.submit(wire_job(R"({"job":"deviations","id":"big","grid":{"from":-20,"to":20,"count":2000}})"),
                 big);
    sched.wait_idle();

    expect_finished(*big, JobState::cancelled, "big");
    EXPECT_TRUE(big->outcome->summary.cancelled);
    EXPECT_GE(big->results.size(), 5u);
    EXPECT_LT(big->results.size(), 2000u); // dispatch really stopped
    EXPECT_EQ(sched.stats().cancelled, 1u);
    // A cancelled job never poisons the cache: resubmitting runs fresh.
    auto again = submit(sched,
        R"({"job":"deviations","id":"big2","grid":{"from":-20,"to":20,"count":2000}})");
    EXPECT_FALSE(again->cached);
    sched.cancel("big2");
    sched.wait_idle();
    expect_finished(*again, JobState::cancelled, "big2");
}

TEST(JobScheduler, FastMathJobsNeverShareCacheEntriesWithExact) {
    SweepService service(make_pipeline(), {.workers = 2});
    JobScheduler sched(service);

    // Exact job, then the identical universe under fast_math: the job
    // cache key embeds the effective mode, so the second submit must run
    // for real — serving it from the exact entry would hand a client
    // signatures from the wrong mode.
    const std::string exact_line =
        R"({"job":"deviations","grid":{"from":-10,"to":10,"count":9}})";
    const std::string fast_line =
        R"({"job":"deviations","grid":{"from":-10,"to":10,"count":9},"fast_math":true})";
    auto exact = submit(sched, exact_line);
    sched.wait_idle();
    ASSERT_EQ(exact->results.size(), 9u);

    auto fast = submit(sched, fast_line);
    EXPECT_FALSE(fast->cached);
    sched.wait_idle();
    ASSERT_EQ(fast->results.size(), 9u);
    expect_finished(*fast, JobState::done, "fast_math run");

    // Within one mode, replay works as usual — and each mode replays its
    // own stream bit for bit.
    auto exact_again = submit(sched, exact_line);
    EXPECT_TRUE(exact_again->cached);
    expect_same_stream(exact_again->results, exact->results, "exact replay");
    auto fast_again = submit(sched, fast_line);
    EXPECT_TRUE(fast_again->cached);
    expect_same_stream(fast_again->results, fast->results, "fast_math replay");
    EXPECT_EQ(sched.stats().cache_hits, 2u);

    // Wire jobs always pin the mode, so an exact job queued behind the
    // fast_math one evaluates exact — the fast job's mode never leaks.
    auto after = submit(sched,
        R"({"job":"deviations","grid":{"from":-10,"to":10,"count":10}})");
    EXPECT_FALSE(after->cached);
    sched.wait_idle();
    EXPECT_EQ(after->results.size(), 10u);
    EXPECT_FALSE(service.pipeline().options().fast_math);
}

TEST(JobScheduler, UnpinnedJobRunsInTheServiceModeNotThePreviousJobs) {
    SweepService service(make_pipeline(), {.workers = 2});
    JobScheduler sched(service);
    const std::string exact_line =
        R"({"job":"deviations","grid":{"from":-10,"to":10,"count":9}})";
    SweepService fresh(make_pipeline(), {.workers = 2});
    const std::vector<SweepResult> exact_ref =
        serial_reference(fresh, wire_job(exact_line));

    auto fast = submit(sched,
        R"({"job":"deviations","grid":{"from":-10,"to":10,"count":9},"fast_math":true})");
    sched.wait_idle();
    ASSERT_EQ(fast->results.size(), 9u);

    // An in-process job that pins no mode runs under the service's
    // construction-time mode (exact), not the mode the fast job left.
    WireJob unpinned = wire_job(exact_line);
    unpinned.job.fast_math.reset();
    auto h = std::make_shared<Recorder>();
    sched.submit(std::move(unpinned), h);
    sched.wait_idle();
    expect_same_stream(h->results, exact_ref, "unpinned after fast_math");
    EXPECT_FALSE(service.pipeline().options().fast_math);

    // The cache entry it filled is exact, so the exact wire job it serves
    // gets exact bits.
    auto exact = submit(sched, exact_line);
    EXPECT_TRUE(exact->cached);
    expect_same_stream(exact->results, exact_ref, "exact replay");
}

TEST(JobScheduler, VerifySerialMatchesTheSerialReferenceAndBypassesTheCache) {
    SweepService service(make_pipeline(), {.workers = 2});
    JobScheduler sched(service);
    const std::string line =
        R"({"job":"deviations","verify_serial":true,"grid":{"from":-10,"to":10,"count":16}})";
    auto h = submit(sched, line);
    sched.wait_idle();
    EXPECT_EQ(h->results.size(), 16u);
    expect_finished(*h, JobState::done, "verify_serial");
    EXPECT_TRUE(h->outcome->verify_ran);
    EXPECT_TRUE(h->outcome->verified);
    EXPECT_EQ(h->outcome->verify_members, 16u);
    // verify_serial is a test instrument: it must bypass the cache in both
    // directions, so a repeat verifies for real again.
    auto repeat = submit(sched, line);
    sched.wait_idle();
    EXPECT_EQ(repeat->results.size(), 16u);
    EXPECT_FALSE(repeat->outcome->from_cache);
    EXPECT_TRUE(repeat->outcome->verify_ran);
    EXPECT_EQ(sched.stats().cache_hits, 0u);
}

TEST(JobScheduler, GoldenPrefetchRunsOnTheSubmitterOnlyForAJobThatWaits) {
    SweepService service(make_pipeline(), {.workers = 2});
    auto& golden_cache = core::GoldenSignatureCache::instance();
    golden_cache.clear();

    JobScheduler sched(service);
    sched.set_paused(true); // the job will wait, so submit prefetches
    auto h = submit(sched, R"({"job":"deviations","deviations":[-5,5]})");
    // The golden was computed on this thread before submit returned.
    EXPECT_EQ(sched.stats().goldens_prefetched, 1u);
    EXPECT_EQ(golden_cache.misses(), 1u); // the prefetch compute itself
    const std::size_t hits_before = golden_cache.hits();

    sched.set_paused(false);
    sched.wait_idle();
    EXPECT_EQ(h->results.size(), 2u);
    expect_finished(*h, JobState::done, "prefetched job");
    // The dispatched job's own set_golden hit the warmed entry instead of
    // recomputing: overlap with zero effect on result bits.
    EXPECT_EQ(golden_cache.misses(), 1u);
    EXPECT_GE(golden_cache.hits(), hits_before + 1);

    // An idle scheduler dispatches at once, so submit skips the call.
    auto idle = submit(sched, R"({"job":"deviations","deviations":[-4,4]})");
    EXPECT_EQ(sched.stats().goldens_prefetched, 1u);
    sched.wait_idle();
    EXPECT_EQ(idle->results.size(), 2u);
}

TEST(JobScheduler, DestructorFinishesTheBacklogAsCancelled) {
    SweepService service(make_pipeline(), {.workers = 2});
    std::vector<std::shared_ptr<Recorder>> jobs;
    {
        JobScheduler sched(service);
        sched.set_paused(true);
        for (int i = 0; i < 3; ++i)
            jobs.push_back(submit(sched,
                R"({"job":"deviations","grid":{"from":-20,"to":20,"count":500}})"));
        // Destroyed with a full backlog: must not hang or leak threads.
    }
    for (const auto& job : jobs) {
        expect_finished(*job, JobState::cancelled, "backlog");
        EXPECT_FALSE(job->was_started);
        EXPECT_TRUE(job->results.empty());
        EXPECT_EQ(job->finished_on, std::this_thread::get_id());
    }
    // The service survives its scheduler: direct runs still work.
    std::size_t delivered = 0;
    (void)service.run(
        SweepJob::deviation_grid(core::paper_biquad(), {-5.0, 5.0}),
        [&](const SweepResult&) { ++delivered; });
    EXPECT_EQ(delivered, 2u);
}

// The acceptance scenario, at the wire level: two clients submit
// interleaved jobs on one session — one an exact resubmit — and both
// receive ascending-order result streams bit-identical to serial run(),
// with the resubmit answered by the whole-job cache while the other job is
// still running. Every emitted line must satisfy the protocol schema.
TEST(ServerSession, InterleavedClientsStreamBitIdenticalAndResubmitIsCached) {
    SweepService service(make_pipeline(), {.workers = 2});
    const std::string small_universe =
        R"("grid":{"from":-10,"to":10,"count":9})";
    const std::string big_universe =
        R"("parameter":"q","grid":{"from":-20,"to":20,"count":300})";
    const std::vector<SweepResult> ref_small = serial_reference(
        service, wire_job(R"({"job":"deviations",)" + small_universe + "}"));
    const std::vector<SweepResult> ref_big = serial_reference(
        service, wire_job(R"({"job":"deviations",)" + big_universe + "}"));

    xysig::Mutex lines_mutex;
    std::vector<std::string> lines;
    {
        ServerSession session(service, [&](const std::string& l) {
            xysig::MutexLock g(lines_mutex);
            lines.push_back(l);
        });
        session.emit_ready(256);
        serve_lines(session,
                    {R"({"job":"deviations","id":"warm","client":"alice",)" +
                     small_universe + "}"});
        session.drain(); // alice's first pass populates the whole-job cache
        serve_lines(session,
                    {R"({"job":"deviations","id":"big","client":"bob",)" +
                         big_universe + "}",
                     R"({"job":"deviations","id":"re","client":"alice",)" +
                         small_universe + "}",
                     R"({"cmd":"stats"})"});
        session.drain();
        EXPECT_TRUE(session.all_verified());
    }

    struct PerJob {
        std::vector<std::size_t> members;
        std::vector<std::string> ndf_hex;
        bool done = false;
        bool done_cached = false;
        bool queued_cached = false;
    };
    std::map<std::string, PerJob> jobs;
    std::uint64_t wire_cache_hits = 0;
    bool re_done_before_big = false;
    for (const std::string& l : lines) {
        EXPECT_NO_THROW(check_protocol_line(l)) << l;
        const JsonValue v = JsonValue::parse(l);
        if (!v.has("event"))
            continue;
        const std::string event = v.at("event").as_string();
        const std::string id = v.string_or("id", "");
        if (event == "queued") {
            jobs[id].queued_cached = v.at("cached").as_bool();
        } else if (event == "result") {
            jobs[id].members.push_back(
                static_cast<std::size_t>(v.at("member").as_number()));
            jobs[id].ndf_hex.push_back(v.at("ndf_hex").as_string());
        } else if (event == "job_done") {
            jobs[id].done = true;
            jobs[id].done_cached = v.bool_or("cached", false);
            if (id == "re" && !jobs["big"].done)
                re_done_before_big = true;
        } else if (event == "stats") {
            wire_cache_hits = static_cast<std::uint64_t>(
                v.at("scheduler").at("cache_hits").as_number());
            for (const char* cache : {"golden_cache", "job_cache", "trace_cache"})
                for (const char* field :
                     {"hits", "misses", "size", "evictions", "capacity"})
                    EXPECT_TRUE(v.at(cache).at(field).is_number())
                        << cache << "." << field;
            EXPECT_EQ(static_cast<std::size_t>(
                          v.at("trace_cache").at("capacity").as_number()),
                      core::StimulusTraceCache::instance().capacity());
        }
    }

    const auto check_stream = [&](const std::string& id,
                                  const std::vector<SweepResult>& ref) {
        const PerJob& j = jobs[id];
        EXPECT_TRUE(j.done) << id;
        ASSERT_EQ(j.members.size(), ref.size()) << id;
        for (std::size_t i = 0; i < ref.size(); ++i) {
            EXPECT_EQ(j.members[i], i) << id; // ascending, gap-free
            EXPECT_EQ(j.ndf_hex[i], format_double_exact(ref[i].ndf))
                << id << " member " << i;
        }
    };
    check_stream("warm", ref_small);
    check_stream("big", ref_big);
    check_stream("re", ref_small);

    // The resubmit was answered by the whole-job cache (acknowledged as
    // cached, closed as cached, counted in the wire stats)...
    EXPECT_TRUE(jobs["re"].queued_cached);
    EXPECT_TRUE(jobs["re"].done_cached);
    EXPECT_FALSE(jobs["big"].done_cached);
    EXPECT_GE(wire_cache_hits, 1u);
    // ...and finished while bob's long job was still running — the queue
    // really interleaves, with no head-of-line blocking.
    EXPECT_TRUE(re_done_before_big);
}

// PROTOCOL.md framing: blank lines are ignored. serve() is the one request
// loop every peer runs (stdin, TCP connections, loopback socketpairs), so
// pinning it over a pipe pins it for all of them.
TEST(ServerSession, ServeIgnoresWhitespaceOnlyLinesOverAPipe) {
    SweepService service(make_pipeline(), {.workers = 1});
    xysig::Mutex lines_mutex;
    std::vector<std::string> lines;
    {
        ServerSession session(service, [&](const std::string& l) {
            xysig::MutexLock g(lines_mutex);
            lines.push_back(l);
        });
        serve_lines(session, {"", " \t\r", R"({"cmd":"ping","id":"p"})"});
    }
    ASSERT_EQ(lines.size(), 1u); // the pong, no error event
    const JsonValue pong = JsonValue::parse(lines.front());
    EXPECT_EQ(pong.string_or("event", ""), "pong");
    EXPECT_EQ(pong.string_or("id", ""), "p");
}

/// Threads of this process right now.
std::size_t thread_count() {
    std::size_t n = 0;
    for ([[maybe_unused]] const auto& task :
         std::filesystem::directory_iterator("/proc/self/task"))
        ++n;
    return n;
}

/// Events in `lines` named `event` whose id starts with `id_prefix`.
std::size_t count_events(const std::vector<std::string>& lines,
                         const std::string& event, const std::string& id_prefix) {
    std::size_t n = 0;
    for (const std::string& l : lines) {
        const JsonValue v = JsonValue::parse(l);
        if (v.string_or("event", "") == event &&
            v.string_or("id", "").rfind(id_prefix, 0) == 0)
            ++n;
    }
    return n;
}

// A queued job costs the session no thread: with one long SPICE job
// running, sixteen more jobs queued behind it leave the thread count where
// it was (their events come from the dispatcher when they run).
TEST(ServerSession, QueuedJobsHoldNoThreadOfTheirOwn) {
    SweepService service(make_pipeline(), {.workers = 2});
    xysig::Mutex lines_mutex;
    xysig::CondVar lines_cv;
    std::vector<std::string> lines;
    const auto wait_for_lines = [&](const std::string& event,
                                    const std::string& id_prefix,
                                    std::size_t count) {
        xysig::MutexLock g(lines_mutex);
        return lines_cv.wait_for(g, std::chrono::seconds(120), [&] {
            return count_events(lines, event, id_prefix) >= count;
        });
    };
    ServerSession session(service, [&](const std::string& l) {
        xysig::MutexLock g(lines_mutex);
        lines.push_back(l);
        lines_cv.notify_all();
    });
    int fds[2] = {-1, -1};
    ASSERT_EQ(::pipe(fds), 0);
    std::thread reader([&] { session.serve(fds[0]); });
    const auto send = [&](const std::string& line) {
        const std::string bytes = line + "\n";
        ASSERT_EQ(::write(fds[1], bytes.data(), bytes.size()),
                  static_cast<ssize_t>(bytes.size()));
    };

    send(R"({"job":"spice_faults","id":"long","settle_periods":100,"emit_signatures":false})");
    ASSERT_TRUE(wait_for_lines("job_start", "long", 1));
    const std::size_t before = thread_count();
    for (int i = 0; i < 16; ++i)
        send(R"({"job":"deviations","id":"grid-)" + std::to_string(i) +
             R"(","grid":{"from":-)" + std::to_string(10 + i) + R"(,"to":10,"count":4}})");
    ASSERT_TRUE(wait_for_lines("queued", "grid-", 16));
    const std::size_t after = thread_count();
    {
        xysig::MutexLock g(lines_mutex);
        EXPECT_EQ(count_events(lines, "job_done", "long"), 0u)
            << "the long job must still be running when threads are counted";
    }
    EXPECT_LE(after, before);

    send(R"({"cmd":"cancel","id":"long"})");
    ::close(fds[1]);
    reader.join();
    ::close(fds[0]);
    session.drain();
    xysig::MutexLock g(lines_mutex);
    EXPECT_EQ(count_events(lines, "job_done", "grid-"), 16u);
}

// Backpressure, not buffering: while the line sink is blocked inside the
// first job's stream, the service starts no job — the first stays inside
// its run and the second stays queued — and after release both streams
// complete, bit-identical to SweepService::run.
TEST(ServerSession, AStalledReaderHoldsBackEveryQueuedJob) {
    const std::string line_a =
        R"({"job":"deviations","id":"a","grid":{"from":-20,"to":20,"count":400}})";
    const std::string line_b =
        R"({"job":"deviations","id":"b","parameter":"q","grid":{"from":-15,"to":15,"count":40}})";
    SweepService reference_service(make_pipeline(), {.workers = 2});
    const std::vector<SweepResult> ref_a =
        serial_reference(reference_service, wire_job(line_a));
    const std::vector<SweepResult> ref_b =
        serial_reference(reference_service, wire_job(line_b));

    SweepService service(make_pipeline(), {.workers = 2});
    xysig::Mutex gate_mutex;
    xysig::CondVar gate_cv;
    std::vector<std::string> lines;
    bool b_queued = false, blocked = false, released = false;
    // Both jobs are submitted before the sink blocks: the session
    // serialises sink calls, so a blocked sink would also hold the reader.
    ServerSession session(service, [&](const std::string& l) {
        const JsonValue v = JsonValue::parse(l);
        const std::string event = v.string_or("event", "");
        const std::string id = v.string_or("id", "");
        xysig::MutexLock g(gate_mutex);
        lines.push_back(l);
        b_queued = b_queued || (event == "queued" && id == "b");
        if (b_queued && !released && event == "result" && id == "a") {
            blocked = true;
            gate_cv.notify_all();
            gate_cv.wait(g, [&] { return released; });
        }
    });
    std::thread reader([&] { serve_lines(session, {line_a, line_b}); });
    {
        xysig::MutexLock g(gate_mutex);
        ASSERT_TRUE(gate_cv.wait_for(g, std::chrono::seconds(120),
                                     [&] { return blocked; }));
    }
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(service.stats().jobs, 0u) << "hold step " << i;
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
    {
        xysig::MutexLock g(gate_mutex);
        released = true;
        gate_cv.notify_all();
    }
    reader.join();
    session.drain();
    EXPECT_EQ(service.stats().jobs, 2u);

    xysig::MutexLock g(gate_mutex);
    std::map<std::string, std::vector<std::string>> ndf_hex;
    for (const std::string& l : lines) {
        const JsonValue v = JsonValue::parse(l);
        if (v.string_or("event", "") == "result")
            ndf_hex[v.string_or("id", "")].push_back(v.at("ndf_hex").as_string());
    }
    for (const auto& [id, ref] :
         {std::pair{std::string("a"), &ref_a}, std::pair{std::string("b"), &ref_b}}) {
        ASSERT_EQ(ndf_hex[id].size(), ref->size()) << id;
        for (std::size_t i = 0; i < ref->size(); ++i)
            EXPECT_EQ(ndf_hex[id][i], format_double_exact((*ref)[i].ndf))
                << id << " member " << i;
    }
    EXPECT_EQ(count_events(lines, "job_done", ""), 2u);
}

} // namespace
} // namespace xysig::server
