// TcpTransport / TcpListener guarantees: a localhost listen/connect pair
// speaks byte-for-byte the same protocol as the other transports (the
// fan-out driver cannot tell them apart: the ready banner is the first
// line, blank request lines are ignored), a dropped connection
// re-dispatches and resumes bit-identically, v3 heartbeats keep a
// slow-but-alive worker from being shot by a tight inactivity timeout,
// the whole-job cache serves a job across connections, and the accept
// loop outlives a failed accept().

#include "server/tcp_transport.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/error.h"
#include "server/fanout.h"
#include "server/fd_io.h"
#include "server/job_cache.h"
#include "server/wire.h"
#include "support/chaos.h"
#include "support/server_helpers.h"

namespace xysig::server {
namespace {

[[nodiscard]] TcpListener::Options listener_options() {
    TcpListener::Options opts;
    opts.bind_address = "127.0.0.1";
    opts.port = 0; // ephemeral; port() reports the bound one
    opts.workers = 2;
    opts.samples_per_period = kSpp;
    return opts;
}

[[nodiscard]] FanoutDriver::TransportFactory tcp_factory(unsigned short port) {
    return [port] {
        return std::make_unique<TcpTransport>("127.0.0.1", port);
    };
}

TEST(TcpTransport, FirstLineIsTheReadyBannerThenPingPongs) {
    TcpListener listener(listener_options());
    listener.start();

    TcpTransport transport("127.0.0.1", listener.port());
    // The banner is the first line, exactly as on the pipe transports, so
    // the fan-out driver's handshake is the same for every peer.
    std::string line;
    ASSERT_EQ(transport.read_line(line, 10.0), Transport::ReadStatus::line);
    const JsonValue ready = JsonValue::parse(line);
    EXPECT_EQ(ready.string_or("event", ""), "ready");
    EXPECT_EQ(ready.number_or("version", 0.0), kProtocolVersion);
    EXPECT_EQ(transport.connect_attempts(), 1u);

    // And the connection actually serves jobs: ping -> pong (v3).
    ASSERT_TRUE(transport.send_line(R"({"cmd":"ping","id":"t1"})"));
    ASSERT_EQ(transport.read_line(line, 10.0), Transport::ReadStatus::line);
    const JsonValue pong = JsonValue::parse(line);
    EXPECT_EQ(pong.string_or("event", ""), "pong");
    EXPECT_EQ(pong.string_or("id", ""), "t1");
}

TEST(TcpListener, WhitespaceOnlyLinesAreIgnored) {
    // PROTOCOL.md framing: blank lines are ignored — a connection runs
    // the same ServerSession::serve loop as sweep_server's stdin.
    TcpListener listener(listener_options());
    listener.start();

    TcpTransport transport("127.0.0.1", listener.port());
    ASSERT_TRUE(transport.send_line(""));
    ASSERT_TRUE(transport.send_line(" \t\r"));
    ASSERT_TRUE(transport.send_line(R"({"cmd":"ping","id":"after-blank"})"));
    ASSERT_TRUE(transport.send_line(R"({"cmd":"quit"})"));

    std::vector<std::string> events;
    std::string line;
    while (transport.read_line(line, 10.0) == Transport::ReadStatus::line)
        events.push_back(JsonValue::parse(line).string_or("event", ""));
    EXPECT_EQ(events, (std::vector<std::string>{"ready", "pong"}));
}

TEST(TcpTransport, ConnectRetriesWithBackoffThenFails) {
    // Nothing listens here: a closed port must cost bounded attempts and
    // a bounded wait, then throw — not hang or crash.
    TcpListener probe(listener_options()); // grab an ephemeral port...
    const unsigned short dead_port = probe.port();
    probe.stop(); // ...then free it so nothing accepts

    try {
        TcpTransport transport("127.0.0.1", dead_port);
        FAIL() << "connected to a closed port";
    } catch (const Error& e) {
        // Five attempts, ~0.75 s of backoff in all.
        EXPECT_NE(std::string(e.what()).find("after 5 attempt(s)"),
                  std::string::npos)
            << e.what();
    }
}

TEST(TcpFanout, FourPartitionGridMergesBitIdenticallyOverLocalhost) {
    const std::string job =
        R"({"job":"deviations","grid":{"from":-20,"to":20,"count":96}})";
    const auto reference = single_process_reference(job);
    ASSERT_EQ(reference.size(), 96u);

    TcpListener listener(listener_options());
    listener.start();

    FanoutOptions fopts;
    fopts.partitions = 4;
    fopts.read_timeout_seconds = 10.0;
    FanoutDriver driver(tcp_factory(listener.port()), fopts);
    std::vector<FanoutRecord> merged;
    const FanoutSummary summary =
        driver.run(job, [&](const FanoutRecord& r) { merged.push_back(r); });

    ASSERT_EQ(merged.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i)
        EXPECT_EQ(merged[i].ndf_hex, reference[i].ndf_hex) << "member " << i;
    EXPECT_EQ(summary.redispatches, 0u);
    EXPECT_EQ(listener.connections_accepted(), 4u);
}

TEST(TcpFanout, DroppedConnectionReconnectsAndResumesBitIdentically) {
    const std::string job =
        R"({"job":"deviations","grid":{"from":-20,"to":20,"count":96}})";
    const auto reference = single_process_reference(job);

    TcpListener listener(listener_options());
    listener.start();

    // First connection dies after 8 delivered lines; the replacement
    // connects to the same listener and resumes from the first
    // unreceived member.
    ChaosPlan plan;
    plan.mode = ChaosMode::disconnect;
    plan.after_lines = 8;
    FanoutOptions fopts;
    fopts.partitions = 2;
    fopts.read_timeout_seconds = 10.0;
    FanoutDriver driver(chaos_factory(tcp_factory(listener.port()), plan),
                        fopts);
    std::vector<FanoutRecord> merged;
    const FanoutSummary summary =
        driver.run(job, [&](const FanoutRecord& r) { merged.push_back(r); });

    ASSERT_EQ(merged.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i)
        EXPECT_EQ(merged[i].ndf_hex, reference[i].ndf_hex) << "member " << i;
    EXPECT_GE(summary.redispatches, 1u);
    EXPECT_GE(listener.connections_accepted(), 3u); // 2 + the replacement
}

TEST(TcpFanout, HeartbeatsKeepASlowPeerAliveThroughATightTimeout) {
    // One worker runs 8 SPICE members, 6 of them slow (~0.08 s each in
    // Release at settle 400), so result lines arrive further apart than
    // the driver's read timeout: only the v3 heartbeats between them keep
    // the driver from shooting a healthy worker. The job runs on the
    // worker, not from the process-wide job cache, whatever ran before.
    JobResultCache::instance().clear();
    TcpListener::Options opts = listener_options();
    opts.workers = 1;
    opts.session.heartbeat_seconds = 0.005;
    TcpListener listener(opts);
    listener.start();

    const std::string job =
        R"({"job":"spice_faults","universe":"open","settle_periods":400,"emit_signatures":false})";
    const auto reference = single_process_reference(job);

    FanoutOptions fopts;
    fopts.partitions = 1;
    fopts.read_timeout_seconds = 0.025; // 5 heartbeats, below one member
    fopts.max_attempts = 1;             // a single false kill fails the run
    FanoutDriver driver(tcp_factory(listener.port()), fopts);
    std::vector<FanoutRecord> merged;
    std::vector<std::chrono::steady_clock::time_point> arrivals;
    const FanoutSummary summary =
        driver.run(job, [&](const FanoutRecord& r) {
            merged.push_back(r);
            arrivals.push_back(std::chrono::steady_clock::now());
        });

    ASSERT_EQ(merged.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i)
        EXPECT_EQ(merged[i].ndf_hex, reference[i].ndf_hex) << "member " << i;
    EXPECT_EQ(summary.redispatches, 0u);
    ASSERT_EQ(summary.partitions.size(), 1u);
    EXPECT_EQ(summary.partitions[0].attempts, 1u);
    // The silences were bridged by heartbeats, and the driver saw them.
    EXPECT_GT(summary.heartbeats, 0u);
    // The premise: some silence between results outlasted the read
    // timeout, so without heartbeats the driver would have shot the peer.
    double widest_gap = 0.0;
    for (std::size_t i = 1; i < arrivals.size(); ++i)
        widest_gap = std::max(
            widest_gap,
            std::chrono::duration<double>(arrivals[i] - arrivals[i - 1]).count());
    EXPECT_GT(widest_gap, fopts.read_timeout_seconds);
}

/// One job on its own connection, to completion: its result lines
/// (ndf_hex and signature) and its job_done event.
struct ConnectionRun {
    std::vector<std::string> results;
    JsonValue job_done;
};

[[nodiscard]] ConnectionRun run_on_new_connection(unsigned short port,
                                                  const std::string& job) {
    TcpTransport transport("127.0.0.1", port);
    EXPECT_TRUE(transport.send_line(job));
    EXPECT_TRUE(transport.send_line(R"({"cmd":"quit"})"));
    ConnectionRun run;
    std::string line;
    while (transport.read_line(line, 30.0) == Transport::ReadStatus::line) {
        JsonValue v = JsonValue::parse(line);
        const std::string event = v.string_or("event", "");
        if (event == "result")
            run.results.push_back(v.string_or("ndf_hex", "") + " " +
                                  v.string_or("signature", ""));
        else if (event == "job_done")
            run.job_done = std::move(v);
    }
    return run;
}

TEST(TcpListener, AResubmitOnAnotherConnectionIsServedFromTheCache) {
    // The whole-job cache is the process's, not a connection's: a job one
    // connection ran streams from it on the next, bit-identically and
    // without cloning a netlist.
    JobResultCache::instance().clear();
    TcpListener listener(listener_options());
    listener.start();
    const std::string job =
        R"({"job":"spice_faults","universe":"open","settle_periods":2})";

    const ConnectionRun first = run_on_new_connection(listener.port(), job);
    ASSERT_TRUE(first.job_done.is_object());
    EXPECT_FALSE(first.job_done.at("cached").as_bool());
    ASSERT_FALSE(first.results.empty());

    const ConnectionRun second = run_on_new_connection(listener.port(), job);
    ASSERT_TRUE(second.job_done.is_object());
    EXPECT_TRUE(second.job_done.at("cached").as_bool());
    EXPECT_EQ(second.job_done.at("netlist_clones").as_number(), 0.0);
    EXPECT_EQ(second.results, first.results);
    EXPECT_EQ(listener.connections_accepted(), 2u);
}

TEST(TcpListener, AcceptSurvivesTheFdLimit) {
    // A failed accept() — EMFILE here — must not end the accept loop: once
    // fds are free again, the waiting connection is served.
    TcpListener listener(listener_options());
    listener.start();
    const int client = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    ASSERT_GE(client, 0);
    struct sockaddr_in addr {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(listener.port());
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);

    // Every fd below the lowest free one is open, so a soft limit at that
    // number makes this process's next accept() fail with EMFILE. Only
    // this process's own limit is touched, and only for 100 ms.
    const int lowest_free = ::dup(client);
    ASSERT_GE(lowest_free, 0);
    ::close(lowest_free);
    struct rlimit saved {};
    ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
    struct rlimit lowered = saved;
    lowered.rlim_cur = static_cast<rlim_t>(lowest_free);
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);
    const int connected = ::connect(
        client, reinterpret_cast<const struct sockaddr*>(&addr), sizeof(addr));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
    ASSERT_EQ(connected, 0);

    std::string buffer;
    std::string line;
    const Transport::ReadStatus status =
        detail::fd_read_line(client, buffer, line, 10.0);
    ::close(client);
    ASSERT_EQ(status, Transport::ReadStatus::line) << "no ready banner";
    EXPECT_EQ(JsonValue::parse(line).string_or("event", ""), "ready");
}

} // namespace
} // namespace xysig::server
