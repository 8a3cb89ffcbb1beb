// TcpTransport / TcpListener guarantees: a localhost listen/connect pair
// speaks byte-for-byte the same protocol as the pipe transport (the
// fan-out driver cannot tell them apart: the ready banner is the first
// line, blank request lines are ignored), a dropped connection
// re-dispatches and resumes bit-identically, and v3 heartbeats keep a
// slow-but-alive worker from being shot by a tight inactivity timeout.

#include "server/tcp_transport.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/strings.h"
#include "server/chaos.h"
#include "server/fanout.h"
#include "server/wire.h"

namespace xysig::server {
namespace {

constexpr std::size_t kSpp = 256;

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

[[nodiscard]] std::vector<std::string>
single_process_reference(const std::string& job_line) {
    WireJob wire = parse_wire_job(JsonValue::parse(job_line));
    SweepServiceOptions sopts;
    sopts.workers = 2;
    SweepService service(make_paper_pipeline(kSpp), sopts);
    std::vector<std::string> out;
    (void)service.run(wire.job, [&](const SweepResult& r) {
        out.push_back(format_double_exact(r.ndf));
    });
    return out;
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
        EXPECT_EQ(merged[i].ndf_hex, reference[i]) << "member " << i;
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
        EXPECT_EQ(merged[i].ndf_hex, reference[i]) << "member " << i;
    EXPECT_GE(summary.redispatches, 1u);
    EXPECT_GE(listener.connections_accepted(), 3u); // 2 + the replacement
}

TEST(TcpFanout, HeartbeatsKeepAQueuedJobAliveThroughATightTimeout) {
    // One shared single-worker service serialises jobs across
    // connections. A fat job occupies it; the driver's job then waits in
    // line, receiving nothing but heartbeats — with a read timeout far
    // smaller than the wait, only the v3 liveness channel keeps the
    // driver from shooting a healthy worker.
    TcpListener::Options opts = listener_options();
    opts.share_service = true;
    opts.workers = 1;
    opts.session.heartbeat_seconds = 0.02;
    TcpListener listener(opts);
    listener.start();

    // Occupy the service with a deliberately slow job and wait until it
    // actually starts (its job_start event) so the ordering is pinned.
    TcpTransport fat("127.0.0.1", listener.port());
    ASSERT_TRUE(fat.send_line(
        R"({"job":"spice_faults","universe":"bridging+open","settle_periods":20,"emit_signatures":false,"id":"fat"})"));
    std::string line;
    bool fat_started = false;
    for (int i = 0; i < 1000 && !fat_started; ++i) {
        ASSERT_NE(fat.read_line(line, 10.0), Transport::ReadStatus::closed);
        if (line.find("\"event\":\"job_start\"") != std::string::npos)
            fat_started = true;
    }
    ASSERT_TRUE(fat_started);

    const std::string job =
        R"({"job":"deviations","grid":{"from":-6,"to":6,"count":12}})";
    const auto reference = single_process_reference(job);

    FanoutOptions fopts;
    fopts.partitions = 1;
    fopts.read_timeout_seconds = 0.35; // far below the fat job's runtime
    fopts.max_attempts = 1;            // a single false kill fails the run
    FanoutDriver driver(tcp_factory(listener.port()), fopts);
    std::vector<FanoutRecord> merged;
    const FanoutSummary summary =
        driver.run(job, [&](const FanoutRecord& r) { merged.push_back(r); });

    ASSERT_EQ(merged.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i)
        EXPECT_EQ(merged[i].ndf_hex, reference[i]) << "member " << i;
    EXPECT_EQ(summary.redispatches, 0u);
    ASSERT_EQ(summary.partitions.size(), 1u);
    EXPECT_EQ(summary.partitions[0].attempts, 1u);
    // The wait was bridged by heartbeats, and the driver saw them.
    EXPECT_GT(summary.heartbeats, 0u);

    fat.shutdown(); // abandon the fat job; the listener tears it down
}

} // namespace
} // namespace xysig::server
