// JobScheduler guarantees: queued submission with per-job result streams
// that stay ascending and bit-identical to a serial SweepService::run() at
// any queue depth, fair-share round-robin across client ids, strict
// priority ordering (no inversion), whole-job cache hits that stream with
// zero netlist clones, golden prefetch overlap, and clean cancellation of
// queued and running jobs — including scheduler teardown with a backlog.

#include "server/scheduler.h"

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
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
#include "monitor/table1.h"
#include "server/job_cache.h"
#include "server/json.h"
#include "server/wire.h"
#include "spice/netlist.h"

namespace xysig::server {
namespace {

bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

core::SignaturePipeline make_pipeline(std::size_t samples_per_period = 256) {
    core::PipelineOptions opts;
    opts.samples_per_period = samples_per_period;
    return core::SignaturePipeline(monitor::build_table1_bank(),
                                   core::paper_stimulus(), opts);
}

WireJob wire_job(const std::string& line) {
    return parse_wire_job(JsonValue::parse(line));
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

std::vector<SweepResult> drain(JobHandle& handle) {
    std::vector<SweepResult> out;
    SweepResult r;
    while (handle.next(r))
        out.push_back(std::move(r));
    return out;
}

/// Stats for dispatcher-run jobs land moments after the handle closes (the
/// dispatcher accounts on its own thread once execute returns); tests that
/// assert on Stats after a drain poll for the expected value first.
void wait_for(const std::function<bool()>& pred) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!pred() && std::chrono::steady_clock::now() < deadline)
        std::this_thread::yield();
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
    SweepService service(make_pipeline(), {.workers = 2, .shard_size = 8});
    JobScheduler::Options opts;
    opts.cache_capacity = 0; // ordering test: every job must really run
    JobScheduler sched(service, opts);
    sched.set_paused(true);

    const auto submit = [&](const std::string& client) {
        JobScheduler::SubmitOptions so;
        so.client = client;
        return sched.submit(
            wire_job(R"({"job":"deviations","deviations":[-5,5]})"), so);
    };
    // Client A floods four jobs before B and C submit two each.
    std::vector<JobHandle> handles;
    for (int i = 0; i < 4; ++i)
        handles.push_back(submit("A"));
    for (int i = 0; i < 2; ++i)
        handles.push_back(submit("B"));
    for (int i = 0; i < 2; ++i)
        handles.push_back(submit("C"));
    EXPECT_EQ(sched.stats().queue_depth, 8u);
    sched.set_paused(false);

    std::vector<std::uint64_t> seq;
    for (JobHandle& h : handles) {
        EXPECT_EQ(drain(h).size(), 2u);
        seq.push_back(h.outcome().run_sequence);
    }
    // Round-robin across A, B, C at equal priority — A's flood cannot
    // starve B or C: A1 B1 C1 A2 B2 C2 A3 A4.
    const std::vector<std::uint64_t> a = {seq[0], seq[1], seq[2], seq[3]};
    const std::vector<std::uint64_t> b = {seq[4], seq[5]};
    const std::vector<std::uint64_t> c = {seq[6], seq[7]};
    EXPECT_EQ(a, (std::vector<std::uint64_t>{1, 4, 7, 8}));
    EXPECT_EQ(b, (std::vector<std::uint64_t>{2, 5}));
    EXPECT_EQ(c, (std::vector<std::uint64_t>{3, 6}));

    wait_for([&] { return sched.stats().completed >= 8; });
    const auto stats = sched.stats();
    EXPECT_EQ(stats.submitted, 8u);
    EXPECT_EQ(stats.completed, 8u);
    EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(JobScheduler, PriorityOrdersDispatchWithoutInversion) {
    SweepService service(make_pipeline(), {.workers = 2, .shard_size = 8});
    JobScheduler::Options opts;
    opts.cache_capacity = 0;
    JobScheduler sched(service, opts);
    sched.set_paused(true);

    const auto submit = [&](int priority, const std::string& client) {
        JobScheduler::SubmitOptions so;
        so.priority = priority;
        so.client = client;
        return sched.submit(
            wire_job(R"({"job":"deviations","deviations":[-5,5]})"), so);
    };
    // Submission order deliberately scrambles priorities, and the flood
    // client's low-priority backlog precedes the high-priority late job:
    // fairness must never override priority.
    std::vector<JobHandle> handles;
    std::vector<int> priorities = {0, 0, 5, -3, 5};
    handles.push_back(submit(0, "flood"));
    handles.push_back(submit(0, "flood"));
    handles.push_back(submit(5, "flood"));
    handles.push_back(submit(-3, "background"));
    handles.push_back(submit(5, "late")); // arrives last, still beats 0s
    sched.set_paused(false);

    std::vector<std::uint64_t> seq;
    for (JobHandle& h : handles) {
        (void)drain(h);
        seq.push_back(h.outcome().run_sequence);
    }
    // No inversion: for every pair queued together, the strictly-higher
    // priority ran strictly earlier.
    for (std::size_t i = 0; i < seq.size(); ++i)
        for (std::size_t j = 0; j < seq.size(); ++j)
            if (priorities[i] > priorities[j])
                EXPECT_LT(seq[i], seq[j]) << i << " vs " << j;
    // FIFO among the equal-priority pair from one client.
    EXPECT_LT(seq[0], seq[1]);
    // The two priority-5 jobs run 1st/2nd, the -3 job dead last.
    EXPECT_EQ(seq[3], 5u);
}

TEST(JobScheduler, ExactSpiceResubmitStreamsFromCacheWithZeroClones) {
    SweepService service(make_pipeline(), {.workers = 3, .shard_size = 1});
    ASSERT_FALSE(pipeline_fingerprint(service.pipeline()).empty());
    JobScheduler sched(service, JobScheduler::Options{});

    const std::string line = R"({"job":"spice_faults","id":"s1"})";
    JobHandle first = sched.submit(wire_job(line));
    const std::vector<SweepResult> reference = drain(first);
    ASSERT_FALSE(reference.empty());
    EXPECT_EQ(first.outcome().state, JobState::done);
    EXPECT_FALSE(first.outcome().from_cache);
    bool any_nan = false;
    for (const SweepResult& r : reference)
        any_nan = any_nan || std::isnan(r.ndf);
    EXPECT_TRUE(any_nan); // the universe contains unsolvable members


    // Exact resubmit: bit-identical replay, no queue wait, no worker — the
    // netlist clone counter must not move at all (decoded up front so the
    // probe brackets only the submit-and-stream window).
    WireJob resubmit = wire_job(line);
    const std::uint64_t clones_before = spice::Netlist::clone_count();
    JobHandle again = sched.submit(std::move(resubmit));
    EXPECT_TRUE(again.from_cache());
    const std::vector<SweepResult> replayed = drain(again);
    EXPECT_EQ(spice::Netlist::clone_count(), clones_before);
    expect_same_stream(replayed, reference, "cached spice resubmit");
    const JobOutcome out = again.outcome();
    EXPECT_EQ(out.state, JobState::done);
    EXPECT_TRUE(out.from_cache);
    EXPECT_EQ(out.run_sequence, 0u); // never touched the service
    EXPECT_EQ(out.summary.netlist_clones, 0u);

    wait_for([&] { return sched.stats().completed >= 2; });
    const auto stats = sched.stats();
    EXPECT_EQ(stats.submitted, 2u);
    EXPECT_EQ(stats.completed, 2u);
    EXPECT_EQ(stats.cache_hits, 1u);
    EXPECT_EQ(sched.cache().hits(), 1u);
}

TEST(JobScheduler, MemberRangeSliceServedByCachedSuperset) {
    SweepService service(make_pipeline(), {.workers = 2, .shard_size = 4});
    JobScheduler sched(service, JobScheduler::Options{});
    const std::string full_line =
        R"({"job":"deviations","grid":{"from":-20,"to":20,"count":11}})";

    // A slice of a universe nobody has run yet runs for real, and is not
    // stored: only full-universe results enter the cache.
    JobHandle cold_slice = sched.submit(wire_job(
        R"({"job":"deviations","grid":{"from":-20,"to":20,"count":11},"members":{"first":1,"count":2}})"));
    EXPECT_FALSE(cold_slice.from_cache());
    EXPECT_EQ(drain(cold_slice).size(), 2u);
    EXPECT_EQ(sched.cache().size(), 0u);

    JobHandle full = sched.submit(wire_job(full_line));
    EXPECT_FALSE(full.from_cache());
    const std::vector<SweepResult> reference = drain(full);
    ASSERT_EQ(reference.size(), 11u);
    EXPECT_EQ(sched.cache().size(), 1u);

    // Slices of the SAME universe (grid spelled as the explicit list — the
    // content key is over materialised values) are served by indexing the
    // full entry, under local ids; the cold slice's range is among them.
    const std::string list_line =
        R"({"job":"deviations","deviations":[-20,-16,-12,-8,-4,0,4,8,12,16,20],"members":{"first":)";
    for (const auto& [first, count] :
         std::vector<std::pair<std::size_t, std::size_t>>{{3, 4}, {1, 2}, {10, 1}}) {
        JobHandle slice = sched.submit(wire_job(
            list_line + std::to_string(first) + R"(,"count":)" +
            std::to_string(count) + "}}"));
        EXPECT_TRUE(slice.from_cache()) << first << "+" << count;
        const std::vector<SweepResult> sliced = drain(slice);
        ASSERT_EQ(sliced.size(), count);
        for (std::size_t i = 0; i < count; ++i) {
            EXPECT_EQ(sliced[i].member_id, i); // local ids on the wire
            EXPECT_TRUE(same_bits(sliced[i].ndf, reference[first + i].ndf));
            EXPECT_EQ(sliced[i].label, reference[first + i].label);
        }
    }
    EXPECT_EQ(sched.cache().size(), 1u);

    // A different universe runs for real (and then has its own entry).
    JobHandle wider = sched.submit(wire_job(
        R"({"job":"deviations","grid":{"from":-20,"to":20,"count":12}})"));
    EXPECT_FALSE(wider.from_cache());
    EXPECT_EQ(drain(wider).size(), 12u);
    wait_for([&] { return sched.stats().completed >= 6; });
    EXPECT_EQ(sched.stats().cache_hits, 3u);
    EXPECT_EQ(sched.cache().size(), 2u);
}

TEST(JobScheduler, JobOverTheByteCeilingStreamsButIsNotCached) {
    // spp 64 keeps members cheap; 30000 of them outweigh the 8 MiB ceiling.
    SweepService service(make_pipeline(64), {.workers = 2, .shard_size = 256});
    const std::string big_line =
        R"({"job":"deviations","grid":{"from":-30,"to":30,"count":30000}})";
    const std::vector<SweepResult> reference =
        serial_reference(service, wire_job(big_line));
    ASSERT_GT(JobResultBytes::weigh("", reference), JobResultCache::kWeightCeiling);

    JobScheduler sched(service, JobScheduler::Options{});
    const std::string small_line =
        R"({"job":"deviations","grid":{"from":-20,"to":20,"count":9}})";
    JobHandle small = sched.submit(wire_job(small_line));
    EXPECT_EQ(drain(small).size(), 9u);
    JobHandle big = sched.submit(wire_job(big_line));
    EXPECT_FALSE(big.from_cache());
    expect_same_stream(drain(big), reference, "over-ceiling job");
    wait_for([&] { return sched.stats().completed >= 2; });
    EXPECT_EQ(sched.cache().size(), 1u); // the small job only
    EXPECT_LE(sched.cache().weight(), JobResultCache::kWeightCeiling);

    // The resubmit runs on workers again, bit-identically; the small job
    // still hits.
    JobHandle again = sched.submit(wire_job(big_line));
    EXPECT_FALSE(again.from_cache());
    expect_same_stream(drain(again), reference, "over-ceiling resubmit");
    JobHandle small_again = sched.submit(wire_job(small_line));
    EXPECT_TRUE(small_again.from_cache());
    EXPECT_EQ(drain(small_again).size(), 9u);
    wait_for([&] { return sched.stats().completed >= 4; });
    EXPECT_EQ(sched.stats().cache_hits, 1u);
    EXPECT_EQ(sched.cache().size(), 1u);
}

TEST(JobScheduler, InterleavedQueueBitIdenticalToSerialIncludingNaNs) {
    SweepService service(make_pipeline(), {.workers = 3, .shard_size = 4});
    // References first, straight through the service (the scheduler is not
    // constructed yet, so nothing interleaves with these).
    const std::vector<std::string> lines = {
        R"({"job":"deviations","id":"d1","grid":{"from":-20,"to":20,"count":60}})",
        R"({"job":"spice_faults","id":"s1","universe":"open"})",
        R"({"job":"deviations","id":"d2","parameter":"q","grid":{"from":-15,"to":15,"count":45}})",
        R"({"job":"deviations","id":"d1-again","grid":{"from":-20,"to":20,"count":60}})",
        R"({"job":"deviations","id":"d3","deviations":[-7,-3,3,7]})",
    };
    std::vector<std::vector<SweepResult>> references;
    for (const std::string& line : lines)
        references.push_back(serial_reference(service, wire_job(line)));

    // Queue everything at once from two clients with mixed priorities and
    // drain every handle from its own consumer thread — maximum interleave.
    JobScheduler sched(service, JobScheduler::Options{});
    std::vector<JobHandle> handles;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        JobScheduler::SubmitOptions so;
        so.client = i % 2 == 0 ? "alice" : "bob";
        so.priority = static_cast<int>(i % 3);
        handles.push_back(sched.submit(wire_job(lines[i]), so));
    }
    std::vector<std::vector<SweepResult>> streamed(handles.size());
    std::vector<std::thread> consumers;
    for (std::size_t i = 0; i < handles.size(); ++i)
        consumers.emplace_back(
            [&, i] { streamed[i] = drain(handles[i]); });
    for (std::thread& t : consumers)
        t.join();

    for (std::size_t i = 0; i < handles.size(); ++i) {
        expect_same_stream(streamed[i], references[i], "job " + lines[i]);
        // Ascending, gap-free member order per job regardless of queue
        // interleaving.
        for (std::size_t m = 0; m < streamed[i].size(); ++m)
            ASSERT_EQ(streamed[i][m].member_id, m) << lines[i];
        EXPECT_EQ(handles[i].outcome().state, JobState::done);
    }
    // Of the two identical d1 jobs, whichever the priority/fair-share
    // order dispatched second was served by the cache (the dispatch-time
    // re-check) — and its stream was still bit-identical above.
    EXPECT_NE(handles[0].outcome().from_cache,
              handles[3].outcome().from_cache);
    wait_for([&] { return sched.stats().cache_hits >= 1; });
    EXPECT_GE(sched.stats().cache_hits, 1u);
}

TEST(JobScheduler, QueuedJobsCancelWithoutRunning) {
    SweepService service(make_pipeline(), {.workers = 2, .shard_size = 8});
    JobScheduler::Options opts;
    opts.cache_capacity = 0;
    JobScheduler sched(service, opts);
    sched.set_paused(true);

    JobHandle keep = sched.submit(
        wire_job(R"({"job":"deviations","id":"keep","deviations":[-5,5]})"));
    JobHandle by_handle = sched.submit(
        wire_job(R"({"job":"deviations","id":"h","deviations":[-5,5]})"));
    JobHandle by_id = sched.submit(
        wire_job(R"({"job":"deviations","id":"w","deviations":[-5,5]})"));
    by_handle.cancel();
    sched.cancel("w");
    // "w" was dequeued on the spot; a handle-cancel leaves a finalised
    // record in place for the dispatcher to skip, so it still counts here.
    EXPECT_EQ(sched.stats().queue_depth, 2u);
    sched.set_paused(false);

    for (JobHandle* h : {&by_handle, &by_id}) {
        EXPECT_TRUE(drain(*h).empty());
        EXPECT_TRUE(h->cancelled_before_start());
        const JobOutcome out = h->outcome();
        EXPECT_EQ(out.state, JobState::cancelled);
        EXPECT_EQ(out.run_sequence, 0u); // the service never saw it
    }
    EXPECT_EQ(drain(keep).size(), 2u);
    EXPECT_EQ(keep.outcome().state, JobState::done);
    wait_for([&] {
        const auto s = sched.stats();
        return s.cancelled >= 2 && s.completed >= 1;
    });
    const auto stats = sched.stats();
    EXPECT_EQ(stats.cancelled, 2u);
    EXPECT_EQ(stats.completed, 1u);
}

TEST(JobScheduler, RunningJobCancelsCooperativelyKeepsOrder) {
    SweepService service(make_pipeline(), {.workers = 4, .shard_size = 4});
    JobScheduler::Options opts;
    opts.cache_capacity = 0;
    JobScheduler sched(service, opts);

    JobHandle h = sched.submit(wire_job(
        R"({"job":"deviations","id":"big","grid":{"from":-20,"to":20,"count":2000}})"));
    h.wait_until_started();
    // Cancel through the wire-level path after a few results have streamed.
    std::vector<SweepResult> got;
    SweepResult r;
    while (got.size() < 5 && h.next(r))
        got.push_back(r);
    sched.cancel("big");
    while (h.next(r))
        got.push_back(r);

    const JobOutcome out = h.outcome();
    EXPECT_EQ(out.state, JobState::cancelled);
    EXPECT_TRUE(out.summary.cancelled);
    EXPECT_GE(got.size(), 5u);
    EXPECT_LT(got.size(), 2000u); // dispatch really stopped
    for (std::size_t i = 1; i < got.size(); ++i)
        EXPECT_LT(got[i - 1].member_id, got[i].member_id);
    wait_for([&] { return sched.stats().cancelled >= 1; });
    EXPECT_EQ(sched.stats().cancelled, 1u);
    // A cancelled job never poisons the cache: resubmitting runs fresh.
    JobHandle again = sched.submit(wire_job(
        R"({"job":"deviations","id":"big2","grid":{"from":-20,"to":20,"count":2000}})"));
    EXPECT_FALSE(again.from_cache());
    again.cancel();
    (void)drain(again);
}

TEST(JobScheduler, FastMathJobsNeverShareCacheEntriesWithExact) {
    SweepService service(make_pipeline(), {.workers = 2, .shard_size = 4});
    JobScheduler sched(service, JobScheduler::Options{});

    // Exact job, then the identical universe under fast_math: the job
    // cache key embeds the effective mode, so the second submit must run
    // for real — serving it from the exact entry would hand a client
    // signatures from the wrong mode.
    const std::string exact_line =
        R"({"job":"deviations","grid":{"from":-10,"to":10,"count":9}})";
    const std::string fast_line =
        R"({"job":"deviations","grid":{"from":-10,"to":10,"count":9},"fast_math":true})";
    JobHandle exact = sched.submit(wire_job(exact_line));
    const std::vector<SweepResult> exact_ref = drain(exact);
    ASSERT_EQ(exact_ref.size(), 9u);

    JobHandle fast = sched.submit(wire_job(fast_line));
    EXPECT_FALSE(fast.from_cache());
    const std::vector<SweepResult> fast_ref = drain(fast);
    ASSERT_EQ(fast_ref.size(), 9u);
    EXPECT_EQ(fast.outcome().state, JobState::done);

    // Within one mode, replay works as usual — and each mode replays its
    // own stream bit for bit.
    JobHandle exact_again = sched.submit(wire_job(exact_line));
    EXPECT_TRUE(exact_again.from_cache());
    expect_same_stream(drain(exact_again), exact_ref, "exact replay");
    JobHandle fast_again = sched.submit(wire_job(fast_line));
    EXPECT_TRUE(fast_again.from_cache());
    expect_same_stream(drain(fast_again), fast_ref, "fast_math replay");

    wait_for([&] { return sched.stats().completed >= 4; });
    EXPECT_EQ(sched.stats().cache_hits, 2u);

    // Wire jobs always pin the mode, so an exact job queued behind the
    // fast_math one evaluates exact — the fast job's mode never leaks.
    JobHandle after = sched.submit(wire_job(
        R"({"job":"deviations","grid":{"from":-10,"to":10,"count":10}})"));
    EXPECT_FALSE(after.from_cache());
    EXPECT_EQ(drain(after).size(), 10u);
    EXPECT_FALSE(service.pipeline().options().fast_math);
}

TEST(JobScheduler, UnpinnedJobRunsInTheServiceModeNotThePreviousJobs) {
    SweepService service(make_pipeline(), {.workers = 2, .shard_size = 4});
    JobScheduler sched(service, JobScheduler::Options{});
    const std::string exact_line =
        R"({"job":"deviations","grid":{"from":-10,"to":10,"count":9}})";
    SweepService fresh(make_pipeline(), {.workers = 2, .shard_size = 4});
    const std::vector<SweepResult> exact_ref =
        serial_reference(fresh, wire_job(exact_line));

    JobHandle fast = sched.submit(wire_job(
        R"({"job":"deviations","grid":{"from":-10,"to":10,"count":9},"fast_math":true})"));
    ASSERT_EQ(drain(fast).size(), 9u);

    // An in-process job that pins no mode runs under the service's
    // construction-time mode (exact), not the mode the fast job left.
    WireJob unpinned = wire_job(exact_line);
    unpinned.job.fast_math.reset();
    JobHandle h = sched.submit(std::move(unpinned));
    expect_same_stream(drain(h), exact_ref, "unpinned after fast_math");
    EXPECT_FALSE(service.pipeline().options().fast_math);

    // The cache entry it filled is exact, so the exact wire job it serves
    // gets exact bits.
    JobHandle exact = sched.submit(wire_job(exact_line));
    EXPECT_TRUE(exact.from_cache());
    expect_same_stream(drain(exact), exact_ref, "exact replay");
}

TEST(JobScheduler, VerifySerialMatchesTheSerialReferenceAndBypassesTheCache) {
    SweepService service(make_pipeline(), {.workers = 2, .shard_size = 4});
    JobScheduler sched(service, JobScheduler::Options{});
    JobHandle h = sched.submit(wire_job(
        R"({"job":"deviations","verify_serial":true,"grid":{"from":-10,"to":10,"count":16}})"));
    EXPECT_EQ(drain(h).size(), 16u);
    const JobOutcome out = h.outcome();
    EXPECT_EQ(out.state, JobState::done);
    EXPECT_TRUE(out.verify_ran);
    EXPECT_TRUE(out.verified);
    EXPECT_EQ(out.verify_members, 16u);
    // verify_serial is a test instrument: it must bypass the cache in both
    // directions, so a repeat verifies for real again.
    JobHandle repeat = sched.submit(wire_job(
        R"({"job":"deviations","verify_serial":true,"grid":{"from":-10,"to":10,"count":16}})"));
    EXPECT_EQ(drain(repeat).size(), 16u);
    EXPECT_FALSE(repeat.outcome().from_cache);
    EXPECT_TRUE(repeat.outcome().verify_ran);
    EXPECT_EQ(sched.stats().cache_hits, 0u);
}

TEST(JobScheduler, GoldenPrefetchOverlapsTheQueue) {
    SweepService service(make_pipeline(), {.workers = 2, .shard_size = 8});
    auto& golden_cache = core::GoldenSignatureCache::instance();
    golden_cache.clear();

    JobScheduler sched(service, JobScheduler::Options{});
    sched.set_paused(true); // dispatch held back; prefetch is not
    JobHandle h = sched.submit(
        wire_job(R"({"job":"deviations","deviations":[-5,5]})"));
    // The prefetch thread computes the golden while the queue is paused.
    for (int i = 0; i < 500 && sched.stats().goldens_prefetched == 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(sched.stats().goldens_prefetched, 1u);
    EXPECT_EQ(golden_cache.misses(), 1u); // the prefetch compute itself
    const std::size_t hits_before = golden_cache.hits();

    sched.set_paused(false);
    EXPECT_EQ(drain(h).size(), 2u);
    EXPECT_EQ(h.outcome().state, JobState::done);
    // The dispatched job's own set_golden hit the warmed entry instead of
    // recomputing: overlap with zero effect on result bits.
    EXPECT_EQ(golden_cache.misses(), 1u);
    EXPECT_GE(golden_cache.hits(), hits_before + 1);
}

TEST(JobScheduler, DestructorCancelsBacklogAndHandlesStayValid) {
    SweepService service(make_pipeline(), {.workers = 2, .shard_size = 8});
    std::vector<JobHandle> handles;
    {
        JobScheduler::Options opts;
        opts.cache_capacity = 0;
        JobScheduler sched(service, opts);
        sched.set_paused(true);
        for (int i = 0; i < 3; ++i)
            handles.push_back(sched.submit(wire_job(
                R"({"job":"deviations","grid":{"from":-20,"to":20,"count":500}})")));
        // Destroyed with a full backlog: must not hang or leak threads.
    }
    for (JobHandle& h : handles) {
        EXPECT_TRUE(drain(h).empty());
        EXPECT_EQ(h.outcome().state, JobState::cancelled);
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
// still draining. Every emitted line must satisfy the protocol schema.
TEST(ServerSession, InterleavedClientsStreamBitIdenticalAndResubmitIsCached) {
    SweepService service(make_pipeline(), {.workers = 2, .shard_size = 8});
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
    // ...and finished while bob's long job was still draining — the queue
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

} // namespace
} // namespace xysig::server
