// FanoutDriver guarantees: the merged multi-process result stream is
// bit-identical to a single-process SweepService::run over the same
// universe at any partition count — across empty partitions,
// single-member partitions, NaN members straddling partition boundaries,
// worker death mid-partition (re-dispatch), and cooperative cancellation
// fan-out. Most tests use LoopbackTransport: a real ServerSession serving
// one end of a socketpair with the code a TcpListener runs per connection,
// deterministically in-process; a few use in-test fake transports to pin
// the driver's banner check and cancel lines.

#include "server/fanout.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/annotated_mutex.h"
#include "common/error.h"
#include "common/strings.h"
#include "server/fd_io.h"
#include "server/transport.h"
#include "server/wire.h"
#include "support/chaos.h"
#include "support/server_helpers.h"

namespace xysig::server {
namespace {

/// The event lines a peer emits before a job's first result: ready,
/// queued, job_start. A disconnect after this many plus N lines is a
/// worker that died after exactly N results.
constexpr std::size_t kHeaderLines = 3;

/// Reads `peer` until it closes; fails the test on a timeout.
[[nodiscard]] std::vector<std::string> read_until_closed(Transport& peer) {
    std::vector<std::string> lines;
    std::string line;
    Transport::ReadStatus status = Transport::ReadStatus::line;
    while ((status = peer.read_line(line, 30.0)) == Transport::ReadStatus::line)
        lines.push_back(line);
    EXPECT_EQ(status, Transport::ReadStatus::closed);
    return lines;
}

/// The cancel lines the driver sent, each paired with the id of the job
/// it had dispatched on the same transport.
struct CancelLog {
    Mutex mutex;
    std::vector<std::pair<std::string, std::string>> cancels GUARDED_BY(mutex);
};

/// Transport decorator recording every cancel line against the job id
/// dispatched on that transport.
class CancelRecordingTransport final : public Transport {
public:
    CancelRecordingTransport(std::unique_ptr<Transport> base,
                             std::shared_ptr<CancelLog> log)
        : base_(std::move(base)), log_(std::move(log)) {}

    bool send_line(const std::string& line) override {
        const JsonValue v = JsonValue::parse(line);
        if (v.has("job")) {
            dispatched_id_ = v.string_or("id", "");
        } else if (v.string_or("cmd", "") == "cancel") {
            MutexLock lock(log_->mutex);
            log_->cancels.emplace_back(dispatched_id_, v.string_or("id", ""));
        }
        return base_->send_line(line);
    }
    ReadStatus read_line(std::string& out, double timeout_seconds) override {
        return base_->read_line(out, timeout_seconds);
    }
    void shutdown() override { base_->shutdown(); }
    [[nodiscard]] std::string describe() const override {
        return base_->describe();
    }

private:
    std::unique_ptr<Transport> base_;
    std::shared_ptr<CancelLog> log_;
    std::string dispatched_id_;
};

void expect_cancels_name_their_jobs(CancelLog& log) {
    MutexLock lock(log.mutex);
    EXPECT_FALSE(log.cancels.empty());
    for (const auto& [dispatched, cancelled] : log.cancels) {
        EXPECT_NE(dispatched.find("#p"), std::string::npos) << dispatched;
        EXPECT_EQ(cancelled, dispatched);
    }
}

/// Wraps `base` so every transport it makes records into `log`.
[[nodiscard]] FanoutDriver::TransportFactory
recording_factory(FanoutDriver::TransportFactory base,
                  std::shared_ptr<CancelLog> log) {
    return [base = std::move(base), log = std::move(log)] {
        return std::make_unique<CancelRecordingTransport>(base(), log);
    };
}

void expect_merged_identical(const std::vector<FanoutRecord>& merged,
                             const std::vector<ExpectedMember>& reference) {
    ASSERT_EQ(merged.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(merged[i].member, i);
        EXPECT_EQ(merged[i].ndf_hex, reference[i].ndf_hex) << "member " << i;
        EXPECT_EQ(merged[i].signature, reference[i].signature)
            << "member " << i;
    }
}

TEST(FanoutDriver, DeviationGridMergedBitIdenticalAtMultiplePartitionCounts) {
    // The acceptance gate: a >= 1200-member deviation grid, merged streams
    // at >= 2 partition counts, bit-identical to one in-process run.
    const std::string job =
        R"({"job":"deviations","grid":{"from":-20,"to":20,"count":1200}})";
    const auto reference = single_process_reference(job);
    ASSERT_EQ(reference.size(), 1200u);

    for (const unsigned partitions : {2u, 4u}) {
        FanoutOptions opts;
        opts.partitions = partitions;
        opts.verify_single_process = true;
        FanoutDriver driver(loopback_factory(), opts);

        std::vector<FanoutRecord> merged;
        const FanoutSummary summary = driver.run(
            job, [&](const FanoutRecord& r) { merged.push_back(r); });

        expect_merged_identical(merged, reference);
        EXPECT_TRUE(summary.verify_ran);
        EXPECT_TRUE(summary.verify_identical) << partitions << " partitions";
        EXPECT_EQ(summary.members_total, 1200u);
        EXPECT_EQ(summary.members_done, 1200u);
        EXPECT_EQ(summary.redispatches, 0u);
        EXPECT_FALSE(summary.cancelled);
        EXPECT_EQ(summary.samples_per_period, kSpp);
        ASSERT_EQ(summary.partitions.size(), partitions);
        std::size_t covered = 0;
        for (const PartitionOutcome& p : summary.partitions) {
            EXPECT_EQ(p.members_done, p.member_count);
            EXPECT_EQ(p.attempts, 1u);
            covered += p.member_count;
        }
        EXPECT_EQ(covered, 1200u);
    }
}

TEST(FanoutDriver, SpiceFaultUniverseMergedBitIdenticalIncludingNaN) {
    // The 29-fault Tow-Thomas universe contains members with no stable
    // solution (quiet-NaN NDFs, no signature); they must merge exactly
    // like finite members.
    const std::string job =
        R"({"job":"spice_faults","universe":"bridging+open","settle_periods":2})";
    const auto reference = single_process_reference(job);
    ASSERT_GE(reference.size(), 29u);

    for (const unsigned partitions : {2u, 3u}) {
        FanoutOptions opts;
        opts.partitions = partitions;
        opts.verify_single_process = true;
        FanoutDriver driver(loopback_factory(), opts);

        std::vector<FanoutRecord> merged;
        bool any_nan = false;
        const FanoutSummary summary =
            driver.run(job, [&](const FanoutRecord& r) {
                merged.push_back(r);
                if (std::isnan(r.ndf)) {
                    any_nan = true;
                    EXPECT_FALSE(r.signature.has_value());
                }
            });

        expect_merged_identical(merged, reference);
        EXPECT_TRUE(any_nan);
        EXPECT_TRUE(summary.verify_identical) << partitions << " partitions";
        // Clone-per-worker still holds per partition (each loopback peer
        // runs 2 workers, plus one golden clone per peer).
        for (const PartitionOutcome& p : summary.partitions)
            if (p.member_count > 0)
                EXPECT_LE(p.netlist_clones, 2u);
    }
}

TEST(FanoutDriver, NaNMembersStraddlingAPartitionBoundary) {
    const std::string job =
        R"({"job":"spice_faults","universe":"bridging+open","settle_periods":2})";
    const auto reference = single_process_reference(job);

    // Find a NaN member and put partition boundaries right at it: the NaN
    // becomes a single-member partition, its neighbours end/start the
    // adjacent partitions.
    std::size_t nan_member = reference.size();
    for (std::size_t i = 0; i < reference.size(); ++i) {
        if (reference[i].ndf_hex == format_double_exact(
                                        std::numeric_limits<double>::quiet_NaN())) {
            nan_member = i;
            break;
        }
    }
    ASSERT_LT(nan_member, reference.size()) << "universe lost its NaN members";
    ASSERT_GT(nan_member, 0u);

    FanoutOptions opts;
    opts.partition_starts = {0, nan_member, nan_member + 1};
    opts.verify_single_process = true;
    FanoutDriver driver(loopback_factory(), opts);

    std::vector<FanoutRecord> merged;
    const FanoutSummary summary =
        driver.run(job, [&](const FanoutRecord& r) { merged.push_back(r); });

    expect_merged_identical(merged, reference);
    EXPECT_TRUE(summary.verify_identical);
    ASSERT_EQ(summary.partitions.size(), 3u);
    EXPECT_EQ(summary.partitions[1].first_member, nan_member);
    EXPECT_EQ(summary.partitions[1].member_count, 1u); // single-member partition
    EXPECT_TRUE(std::isnan(merged[nan_member].ndf));
}

TEST(FanoutDriver, EmptyAndSingleMemberPartitions) {
    // More partitions than members: the split leaves empty partitions,
    // which must neither dispatch nor stall the merge.
    const std::string job = R"({"job":"deviations","deviations":[-10,0,10]})";
    const auto reference = single_process_reference(job);

    {
        FanoutOptions opts;
        opts.partitions = 8;
        opts.verify_single_process = true;
        FanoutDriver driver(loopback_factory(), opts);
        std::vector<FanoutRecord> merged;
        const FanoutSummary summary =
            driver.run(job, [&](const FanoutRecord& r) { merged.push_back(r); });
        expect_merged_identical(merged, reference);
        EXPECT_TRUE(summary.verify_identical);
        ASSERT_EQ(summary.partitions.size(), 8u);
        std::size_t empties = 0;
        for (const PartitionOutcome& p : summary.partitions) {
            if (p.member_count == 0) {
                ++empties;
                EXPECT_EQ(p.attempts, 0u); // empty partitions never dispatch
            } else {
                EXPECT_EQ(p.member_count, 1u); // and the rest are singletons
            }
        }
        EXPECT_EQ(empties, 5u);
    }
    {
        // Explicit boundaries with repeats: deliberately empty middles.
        FanoutOptions opts;
        opts.partition_starts = {0, 1, 1, 3};
        opts.verify_single_process = true;
        FanoutDriver driver(loopback_factory(), opts);
        std::vector<FanoutRecord> merged;
        const FanoutSummary summary =
            driver.run(job, [&](const FanoutRecord& r) { merged.push_back(r); });
        expect_merged_identical(merged, reference);
        EXPECT_TRUE(summary.verify_identical);
        EXPECT_EQ(summary.partitions[1].member_count, 0u);
        EXPECT_EQ(summary.partitions[3].member_count, 0u);
    }
}

TEST(FanoutDriver, WorkerDeathMidPartitionIsRedispatchedBitIdentically) {
    const std::string job =
        R"({"job":"deviations","grid":{"from":-15,"to":15,"count":60}})";
    const auto reference = single_process_reference(job);

    // The first transport the factory hands out dies after 5 result
    // lines; every later one is healthy. Exactly one partition loses its
    // worker mid-range and must resume at member 5 of its range on a
    // fresh transport, with nothing delivered twice.
    unsigned transports_made = 0; // the driver serialises factory calls
    const auto base = loopback_factory();
    auto counted = [&transports_made, base] {
        ++transports_made;
        return base();
    };
    ChaosPlan plan;
    plan.mode = ChaosMode::disconnect;
    plan.after_lines = kHeaderLines + 5;

    FanoutOptions opts;
    opts.partitions = 2;
    opts.verify_single_process = true;
    FanoutDriver driver(chaos_factory(counted, plan), opts);

    std::vector<FanoutRecord> merged;
    const FanoutSummary summary =
        driver.run(job, [&](const FanoutRecord& r) { merged.push_back(r); });

    expect_merged_identical(merged, reference);
    EXPECT_TRUE(summary.verify_identical);
    EXPECT_EQ(summary.members_done, 60u);
    EXPECT_GE(summary.redispatches, 1u);
    EXPECT_GE(transports_made, 3u); // 2 partitions + >= 1 re-dispatch
}

TEST(FanoutDriver, ExhaustedDispatchAttemptsFailTheRun) {
    // Every peer dies after 2 results: with max_attempts = 2 the dying
    // partitions must exhaust their budget and fail the run as a whole.
    ChaosPlan plan;
    plan.mode = ChaosMode::disconnect;
    plan.after_lines = kHeaderLines + 2;
    FanoutOptions opts;
    opts.partitions = 2;
    opts.max_attempts = 2;
    FanoutDriver driver(
        chaos_factory(loopback_factory(), plan,
                      std::numeric_limits<std::size_t>::max()),
        opts);
    const std::string job =
        R"({"job":"deviations","grid":{"from":-10,"to":10,"count":40}})";
    EXPECT_THROW((void)driver.run(job, [](const FanoutRecord&) {}), Error);
}

TEST(FanoutDriver, CancellationFansOutAndKeepsAscendingOrder) {
    const std::string job =
        R"({"job":"deviations","grid":{"from":-20,"to":20,"count":2000}})";
    FanoutOptions opts;
    opts.partitions = 2;
    auto log = std::make_shared<CancelLog>();
    FanoutDriver driver(recording_factory(loopback_factory(), log), opts);

    SweepCancelToken cancel;
    std::vector<std::size_t> order;
    const FanoutSummary summary = driver.run(
        job,
        [&](const FanoutRecord& r) {
            order.push_back(r.member);
            if (order.size() == 10)
                cancel.cancel();
        },
        &cancel);

    EXPECT_TRUE(summary.cancelled);
    EXPECT_GE(order.size(), 10u);
    EXPECT_LT(order.size(), 2000u); // dispatch really stopped
    EXPECT_EQ(order.size(), summary.members_done);
    // Ascending global order throughout; contiguous prefix before cancel.
    for (std::size_t i = 1; i < order.size(); ++i)
        EXPECT_LT(order[i - 1], order[i]);
    for (std::size_t i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
    EXPECT_FALSE(summary.verify_ran); // nothing to compare a partial stream to
    // Each live peer was told which job to stop: naming it also dequeues
    // a partition job the peer has not started yet.
    expect_cancels_name_their_jobs(*log);
}

TEST(FanoutDriver, RejectsJobsWithAnExplicitMemberRange) {
    FanoutDriver driver(loopback_factory(), {});
    const std::string job =
        R"({"job":"deviations","deviations":[-5,5],"members":{"first":0,"count":1}})";
    EXPECT_THROW((void)driver.run(job, [](const FanoutRecord&) {}),
                 InvalidInput);
}

TEST(FanoutDriver, ThrowingCallbackStopsPartitionsAndRethrows) {
    const std::string job =
        R"({"job":"deviations","grid":{"from":-20,"to":20,"count":500}})";
    FanoutOptions opts;
    opts.partitions = 2;
    FanoutDriver driver(loopback_factory(), opts);
    EXPECT_THROW(
        (void)driver.run(job,
                         [](const FanoutRecord& r) {
                             if (r.member == 3)
                                 throw std::runtime_error("consumer failed");
                         }),
        std::runtime_error);
}

TEST(LoopbackTransport, EmittedEventStreamPassesProtocolCheck) {
    // Closes the emitter <-> validator loop: every line a real session
    // emits for a real job must satisfy check_protocol_line — the same
    // validator CI replays the docs/PROTOCOL.md examples through.
    LoopbackTransport peer(loopback_options());

    ASSERT_TRUE(peer.send_line(
        R"({"job":"deviations","id":"ev","deviations":[-10,5],"progress_every":1,"verify_serial":true})"));
    ASSERT_TRUE(peer.send_line(R"({"cmd":"stats"})"));
    ASSERT_TRUE(peer.send_line(R"({"job":"nope","id":"bad"})")); // -> error event
    ASSERT_TRUE(peer.send_line(R"({"cmd":"quit"})"));

    std::size_t lines = 0;
    bool saw_verify = false, saw_stats = false, saw_error = false;
    for (const std::string& line : read_until_closed(peer)) {
        EXPECT_NO_THROW(check_protocol_line(line)) << line;
        ++lines;
        saw_verify = saw_verify || line.find("\"event\":\"verify\"") !=
                                       std::string::npos;
        saw_stats = saw_stats ||
                    line.find("\"event\":\"stats\"") != std::string::npos;
        saw_error = saw_error ||
                    line.find("\"event\":\"error\"") != std::string::npos;
    }
    EXPECT_GE(lines, 8u); // ready, job_start, 2 results, 2 progress, ...
    EXPECT_TRUE(saw_verify);
    EXPECT_TRUE(saw_stats);
    EXPECT_TRUE(saw_error);
}

TEST(FanoutDriver, RejectsMalformedPartitionBoundaries) {
    // Hand-rolled partition_starts must fail loudly at run() with a
    // message naming the violated rule — not silently drop or duplicate
    // members. (Repeated starts are NOT an error: they are the documented
    // way to spell an empty partition, covered above.)
    const std::string job = R"({"job":"deviations","deviations":[-10,-5,0,5,10]})";
    const auto run_with = [&](std::vector<std::size_t> starts) {
        FanoutOptions opts;
        opts.partition_starts = std::move(starts);
        FanoutDriver driver(loopback_factory(), opts);
        (void)driver.run(job, [](const FanoutRecord&) {});
    };

    const auto expect_message = [&](std::vector<std::size_t> starts,
                                    const std::string& needle) {
        try {
            run_with(std::move(starts));
            FAIL() << "accepted malformed starts (wanted \"" << needle << "\")";
        } catch (const InvalidInput& e) {
            EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
                << e.what();
        }
    };
    expect_message({1, 3}, "begin at 0");       // first range leaks members
    expect_message({0, 9}, "past the universe"); // 5-member universe
    expect_message({0, 4, 2}, "ascend");         // descending boundary
}

TEST(FanoutDriver, ZeroReadTimeoutSurfacesAFootgunWarning) {
    // read_timeout_seconds == 0 disables the liveness watchdog entirely;
    // the run still works, but the summary must carry a warning so CLIs
    // and logs surface the hang-forever footgun.
    const std::string job = R"({"job":"deviations","deviations":[-10,0,10]})";
    const auto reference = single_process_reference(job);

    FanoutOptions opts;
    opts.partitions = 2;
    opts.read_timeout_seconds = 0.0;
    std::vector<FanoutRecord> merged;
    const FanoutSummary no_watchdog =
        FanoutDriver(loopback_factory(), opts)
            .run(job, [&](const FanoutRecord& r) { merged.push_back(r); });
    expect_merged_identical(merged, reference);
    ASSERT_FALSE(no_watchdog.warnings.empty());
    EXPECT_NE(no_watchdog.warnings.front().find("read_timeout"),
              std::string::npos);

    opts.read_timeout_seconds = 30.0;
    merged.clear();
    const FanoutSummary with_watchdog =
        FanoutDriver(loopback_factory(), opts)
            .run(job, [&](const FanoutRecord& r) { merged.push_back(r); });
    expect_merged_identical(merged, reference);
    EXPECT_TRUE(with_watchdog.warnings.empty());
}

TEST(FanoutDriver, WorkStealingRescuesAStragglerBitIdentically) {
    // One partition's transport delays every delivered line; with
    // steal_threshold set, the partition that finishes first must take
    // over the top half of the straggler's remaining range (repeatedly,
    // until the tail is small) — and the merged stream must not show a
    // seam at any stolen boundary.
    const std::string job =
        R"({"job":"deviations","grid":{"from":-15,"to":15,"count":60}})";
    const auto reference = single_process_reference(job);
    ASSERT_EQ(reference.size(), 60u);

    ChaosPlan plan;
    plan.mode = ChaosMode::delay;
    plan.after_lines = 3;
    plan.delay_seconds = 0.02; // ~0.6 s serial tail without stealing

    FanoutOptions opts;
    opts.partitions = 2;
    opts.steal_threshold = 4;
    opts.read_timeout_seconds = 5.0; // delayed lines still beat this
    auto log = std::make_shared<CancelLog>();
    FanoutDriver driver(
        recording_factory(chaos_factory(loopback_factory(), plan), log), opts);

    std::vector<FanoutRecord> merged;
    const FanoutSummary summary =
        driver.run(job, [&](const FanoutRecord& r) { merged.push_back(r); });

    expect_merged_identical(merged, reference);
    EXPECT_GE(summary.steals, 1u);
    EXPECT_EQ(summary.redispatches, 0u); // nobody died, nobody was shot
    unsigned per_partition = 0;
    for (const PartitionOutcome& p : summary.partitions)
        per_partition += p.steals;
    EXPECT_EQ(per_partition, summary.steals); // victim accounting adds up
    // A victim cancels the tail it lost by the id of the job it was sent.
    expect_cancels_name_their_jobs(*log);
}

TEST(FanoutDriver, PartitionWallClockIsRecordedForEveryBusyPartition) {
    // Regression: the per-partition wall-clock used to be written after the
    // thread's last serve loop WITHOUT the driver lock, racing the merge
    // thread's reads of the same outcome entry (and, with stealing on,
    // sibling threads' accounting writes). Pin that every non-empty
    // partition reports a positive wall-clock and that the min/max/mean
    // straggler stats are consistent with the per-partition values.
    const std::string job =
        R"({"job":"deviations","grid":{"from":-12,"to":12,"count":96}})";
    FanoutOptions opts;
    opts.partitions = 3;
    opts.steal_threshold = 4; // exercise the post-steal accounting path too
    FanoutDriver driver(loopback_factory(), opts);

    std::size_t delivered = 0;
    const FanoutSummary summary =
        driver.run(job, [&](const FanoutRecord&) { ++delivered; });

    EXPECT_EQ(delivered, 96u);
    ASSERT_EQ(summary.partitions.size(), 3u);
    double max_seen = 0.0;
    for (const PartitionOutcome& p : summary.partitions) {
        if (p.member_count == 0)
            continue;
        EXPECT_GT(p.seconds, 0.0) << "partition " << p.partition;
        max_seen = std::max(max_seen, p.seconds);
    }
    EXPECT_GT(summary.partition_seconds_min, 0.0);
    EXPECT_GE(summary.partition_seconds_max, summary.partition_seconds_min);
    EXPECT_GE(summary.partition_seconds_mean, summary.partition_seconds_min);
    EXPECT_LE(summary.partition_seconds_mean, summary.partition_seconds_max);
    EXPECT_EQ(summary.partition_seconds_max, max_seen);
}

TEST(FanoutDriver, ThrowingTransportFactoryCostsOneAttempt) {
    // A factory that fails to produce a transport (spawn failure, connect
    // refused) burns one dispatch attempt for that range and the driver
    // retries — it must neither crash the partition thread nor retry
    // for free forever.
    const std::string job = R"({"job":"deviations","deviations":[-10,0,10,20]})";
    const auto reference = single_process_reference(job);

    auto calls = std::make_shared<std::atomic<unsigned>>(0);
    auto base = loopback_factory();
    FanoutDriver::TransportFactory flaky = [calls, base] {
        if (calls->fetch_add(1) == 0)
            throw std::runtime_error("simulated spawn failure");
        return base();
    };

    FanoutOptions opts;
    opts.partitions = 2;
    opts.max_attempts = 3;
    FanoutDriver driver(std::move(flaky), opts);
    std::vector<FanoutRecord> merged;
    const FanoutSummary summary =
        driver.run(job, [&](const FanoutRecord& r) { merged.push_back(r); });

    expect_merged_identical(merged, reference);
    EXPECT_EQ(summary.redispatches, 1u); // exactly the one failed spawn
    unsigned attempts = 0;
    for (const PartitionOutcome& p : summary.partitions)
        attempts += p.attempts;
    EXPECT_EQ(attempts, 3u); // 2 partitions + 1 retry after the throw
}

TEST(LoopbackTransport, WhitespaceOnlyLinesAreIgnored) {
    // PROTOCOL.md framing: blank lines are ignored — on every transport,
    // because every peer runs ServerSession::serve.
    LoopbackTransport peer(loopback_options());
    ASSERT_TRUE(peer.send_line(""));
    ASSERT_TRUE(peer.send_line(" \t\r"));
    ASSERT_TRUE(peer.send_line(R"({"cmd":"ping","id":"after-blank"})"));
    ASSERT_TRUE(peer.send_line(R"({"cmd":"quit"})"));

    const std::vector<std::string> lines = read_until_closed(peer);
    ASSERT_EQ(lines.size(), 2u); // ready, pong — no error events
    EXPECT_EQ(JsonValue::parse(lines[0]).string_or("event", ""), "ready");
    const JsonValue pong = JsonValue::parse(lines[1]);
    EXPECT_EQ(pong.string_or("event", ""), "pong");
    EXPECT_EQ(pong.string_or("id", ""), "after-blank");
}

TEST(LoopbackTransport, AnOverlongRequestLineEndsTheSession) {
    // A peer streaming more than kMaxLineBytes without a newline is not
    // speaking the protocol: the session ends as on EOF instead of
    // buffering the line whole.
    LoopbackTransport peer(loopback_options());
    (void)peer.send_line(std::string(2 * detail::kMaxLineBytes, 'x'));

    const std::vector<std::string> lines = read_until_closed(peer);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(JsonValue::parse(lines[0]).string_or("event", ""), "ready");
}

TEST(LoopbackTransport, InBandCancelClosesASlowSpiceJob) {
    // Cancels travel in-band like every other request: the session's
    // reader handles the job line (decode, submit, `queued`) before it
    // reads the cancel, so the cancel always finds the job queued or
    // running and closes it as cancelled.
    LoopbackTransport peer(loopback_options());
    ASSERT_TRUE(peer.send_line(
        R"({"job":"spice_faults","id":"slow","universe":"bridging+open","settle_periods":20,"emit_signatures":false})"));
    ASSERT_TRUE(peer.send_line(R"({"cmd":"cancel","id":"slow"})"));
    ASSERT_TRUE(peer.send_line(R"({"cmd":"quit"})"));

    std::size_t done_events = 0;
    for (const std::string& line : read_until_closed(peer)) {
        const JsonValue v = JsonValue::parse(line);
        const std::string event = v.string_or("event", "");
        EXPECT_NE(event, "error") << line;
        if (event == "job_done") {
            ++done_events;
            EXPECT_EQ(v.string_or("id", ""), "slow");
            EXPECT_TRUE(v.at("cancelled").as_bool()) << line;
            EXPECT_LT(v.at("members_done").as_number(),
                      v.at("members_total").as_number());
        }
    }
    EXPECT_EQ(done_events, 1u);
}

/// A peer that sends one scripted banner and then stays silent.
class BannerOnlyTransport final : public Transport {
public:
    explicit BannerOnlyTransport(std::string banner)
        : banner_(std::move(banner)) {}

    bool send_line(const std::string&) override { return true; }
    ReadStatus read_line(std::string& out, double timeout_seconds) override {
        if (banner_.empty()) {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(timeout_seconds));
            return ReadStatus::timeout;
        }
        out = std::exchange(banner_, {});
        return ReadStatus::line;
    }
    void shutdown() override {}
    [[nodiscard]] std::string describe() const override { return "banner-only"; }

private:
    std::string banner_;
};

TEST(FanoutDriver, NewerProtocolVersionBannerFailsTheRunAfterOneAttempt) {
    // The driver's handshake is the one banner check for every transport.
    // A peer from a future build is a deterministic mismatch: the run
    // fails at once, naming both versions, instead of burning attempts.
    unsigned transports_made = 0;
    FanoutOptions opts;
    opts.partitions = 1;
    opts.max_attempts = 3;
    opts.read_timeout_seconds = 0.5; // a silent peer must not hang the test
    FanoutDriver driver(
        [&transports_made]() -> std::unique_ptr<Transport> {
            ++transports_made;
            return std::make_unique<BannerOnlyTransport>(
                R"({"event":"ready","samples_per_period":256,"shard_size":8,"version":99,"workers":2})");
        },
        opts);
    try {
        (void)driver.run(std::string(R"({"job":"deviations","deviations":[-5,5]})"),
                         [](const FanoutRecord&) {});
        FAIL() << "a version-99 peer was accepted";
    } catch (const Error& e) {
        const std::string message = e.what();
        EXPECT_NE(message.find("version 99"), std::string::npos) << message;
        EXPECT_NE(message.find(std::to_string(kProtocolVersion)),
                  std::string::npos)
            << message;
    }
    EXPECT_EQ(transports_made, 1u);
}

TEST(FanoutDriver, ExhaustedAttemptsNameTheLastFailure) {
    FanoutOptions opts;
    opts.partitions = 1;
    opts.max_attempts = 2;
    FanoutDriver driver([]() -> std::unique_ptr<Transport> { throw Error("boom"); },
                        opts);
    try {
        (void)driver.run(std::string(R"({"job":"deviations","deviations":[-5,5]})"),
                         [](const FanoutRecord&) {});
        FAIL() << "a factory that always throws did not fail the run";
    } catch (const Error& e) {
        const std::string message = e.what();
        EXPECT_NE(message.find("exhausted 2 dispatch attempts"),
                  std::string::npos)
            << message;
        EXPECT_NE(message.find("boom"), std::string::npos) << message;
    }
}

/// A peer that closes before it sends anything.
class ClosedTransport final : public Transport {
public:
    bool send_line(const std::string&) override { return false; }
    ReadStatus read_line(std::string&, double) override {
        return ReadStatus::closed;
    }
    void shutdown() override {}
    [[nodiscard]] std::string describe() const override { return "closed"; }
};

TEST(FanoutDriver, APeerThatFailsBeforeItsBannerNamesWhy) {
    // One read loop serves the banner and the job; its pre-banner failures
    // keep their own texts.
    const auto failure_of = [](FanoutDriver::TransportFactory factory) {
        FanoutOptions opts;
        opts.partitions = 1;
        opts.max_attempts = 1;
        FanoutDriver driver(std::move(factory), opts);
        try {
            (void)driver.run(
                std::string(R"({"job":"deviations","deviations":[-5,5]})"),
                [](const FanoutRecord&) {});
        } catch (const Error& e) {
            return std::string(e.what());
        }
        return std::string("the run did not fail");
    };
    const std::string closed =
        failure_of([] { return std::make_unique<ClosedTransport>(); });
    EXPECT_NE(closed.find("closed before the ready banner"), std::string::npos)
        << closed;
    const std::string garbage = failure_of(
        [] { return std::make_unique<BannerOnlyTransport>("not json"); });
    EXPECT_NE(garbage.find("malformed banner"), std::string::npos) << garbage;
}

/// A peer scripted by the job it receives, so the test does not depend on
/// the order in which partition threads call the factory. The peer given
/// members.first == 0 holds its results until the driver cancels it, then
/// sends members 0 and 1 and a cancelled job_done; any other peer rejects
/// its job with an error event, but only once the first range's job has
/// been sent (`first_dispatched`): a rejection that fails the run before
/// then would stop the first partition before it dispatches anything.
class ScriptedRangeTransport final : public Transport {
public:
    explicit ScriptedRangeTransport(
        std::shared_ptr<std::atomic<bool>> first_dispatched)
        : first_dispatched_(std::move(first_dispatched)) {
        outbox_.push_back(R"({"event":"ready","samples_per_period":256,"version":)" +
                          std::to_string(kProtocolVersion) + "}");
    }

    bool send_line(const std::string& line) override {
        const JsonValue v = JsonValue::parse(line);
        if (v.has("job")) {
            holds_first_range_ = v.at("members").at("first").as_number() == 0;
            if (holds_first_range_)
                first_dispatched_->store(true);
            else
                rejects_ = true;
        } else if (v.string_or("cmd", "") == "cancel" && holds_first_range_) {
            holds_first_range_ = false;
            for (const char* member : {"0", "1"})
                outbox_.push_back(std::string(R"({"event":"result","member":)") +
                                  member + R"(,"ndf_hex":"0x1p-3"})");
            outbox_.push_back(
                R"({"event":"job_done","cancelled":true,"netlist_clones":0})");
        }
        return true;
    }
    ReadStatus read_line(std::string& out, double timeout_seconds) override {
        if (rejects_ && first_dispatched_->load()) {
            rejects_ = false;
            outbox_.push_back(R"({"event":"error","message":"scripted rejection"})");
        }
        if (outbox_.empty()) {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(timeout_seconds));
            return ReadStatus::timeout;
        }
        out = outbox_.front();
        outbox_.erase(outbox_.begin());
        return ReadStatus::line;
    }
    void shutdown() override {}
    [[nodiscard]] std::string describe() const override { return "scripted"; }

private:
    std::shared_ptr<std::atomic<bool>> first_dispatched_;
    std::vector<std::string> outbox_;
    bool holds_first_range_ = false;
    bool rejects_ = false; ///< owes its rejection, once the first range runs
};

TEST(FanoutDriver, AFailedRunDeliversWhatItMergedInOrderThenThrows) {
    // Partition 1's peer rejects its job, which fails the run and cancels
    // partition 0's peer; that peer then streams members 0 and 1. The run
    // still delivers them, in order, before it throws the rejection — the
    // callback contract of SweepService::run.
    FanoutOptions opts;
    opts.partitions = 2;
    opts.read_timeout_seconds = 10.0;
    auto first_dispatched = std::make_shared<std::atomic<bool>>(false);
    FanoutDriver driver(
        [first_dispatched] {
            return std::make_unique<ScriptedRangeTransport>(first_dispatched);
        },
        opts);
    std::vector<std::size_t> delivered;
    try {
        (void)driver.run(
            std::string(R"({"job":"deviations","deviations":[-10,-5,5,10]})"),
            [&](const FanoutRecord& r) { delivered.push_back(r.member); });
        FAIL() << "a rejected partition did not fail the run";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("scripted rejection"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(delivered, (std::vector<std::size_t>{0, 1}));
}

} // namespace
} // namespace xysig::server
