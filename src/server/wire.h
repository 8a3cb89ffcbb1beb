#ifndef XYSIG_SERVER_WIRE_H
#define XYSIG_SERVER_WIRE_H

/// \file wire.h
/// The NDJSON wire protocol spoken by `sweep_server` and the fan-out
/// driver: one JSON request (job or command) per line in, one JSON event
/// per line out. docs/PROTOCOL.md is the normative field-by-field spec;
/// this header is its implementation surface:
///
///  * parse_wire_job — decodes a job line into a runnable server::SweepJob
///    plus everything a serial re-verification needs (protocol version
///    check, unknown-field-tolerant, member-range slicing for fan-out
///    partitions);
///  * ServerSession — reads requests from a peer's fd, runs them against
///    a SweepService and emits the event stream through a line sink; one
///    instance per protocol peer (stdin/stdout in sweep_server, a socket
///    per TcpListener connection or LoopbackTransport socketpair);
///  * check_protocol_line — strict schema validation of any protocol line
///    (request or event), used by `sweep_server --check` so CI can replay
///    the PROTOCOL.md examples against the real parser.
///
/// Versioning: requests may carry `"version"` (integer). Absent means
/// version 1 — every PR-4 job line is a valid version-1 job. A version
/// above kProtocolVersion is rejected with an error event. Both sides
/// must ignore unknown fields, so minor additions never break old peers.
///
/// Version 2: the session schedules jobs asynchronously through
/// server::JobScheduler — a job line is ACCEPTED (acknowledged with a
/// `queued` event) instead of run inline, multiple jobs interleave on one
/// connection, requests may carry `priority`/`client`, `job_done` reports
/// `cached`/`queue_seconds`, and `{"cmd":"cancel"}` with an id also
/// cancels still-queued jobs. Every version-1 request line is a valid
/// version-2 request line.
///
/// Version 3 (this build): liveness. The session can emit a periodic
/// `heartbeat` event (SessionOptions::heartbeat_seconds) so a coordinator
/// can keep a tight inactivity timeout that kills genuinely dead peers
/// without shooting slow-but-alive ones, and answers `{"cmd":"ping"}`
/// with a `pong` event. A `listening` control event announces a TCP
/// accept loop's bound port. Purely additive: consumers MUST ignore
/// event kinds they do not know (tolerant-reader rule), so every
/// version-2 reader consumes a version-3 stream correctly.

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/annotated_mutex.h"
#include "server/json.h"
#include "server/sweep_service.h"

namespace xysig::server {

class JobScheduler;

/// Protocol version this build speaks (echoed on ready/job_start events).
inline constexpr int kProtocolVersion = 3;

/// The pipeline every wire peer runs: the paper's Table-I monitor bank
/// over the paper stimulus. Fan-out bit-identity relies on coordinator
/// and workers building this identically, so it lives here, not in the
/// example binaries.
[[nodiscard]] core::SignaturePipeline
make_paper_pipeline(std::size_t samples_per_period);

/// Compact exact signature string: "code@t;code@t;..." with hexfloat
/// times, so two strings compare equal iff the chronograms are
/// bit-identical.
[[nodiscard]] std::string signature_string(const capture::Chronogram& ch);

/// Non-negative integer out of a wire JSON number, bounded at 2^53 (above
/// that a double cannot represent every integer, and an unchecked cast to
/// size_t would be UB on untrusted input). Throws InvalidInput; `what`
/// names the field in the message. Shared by the job decoder and the
/// fan-out driver's event reader — both parse untrusted peers.
[[nodiscard]] std::size_t index_field(const JsonValue& v, const char* what);

/// One decoded job line: the runnable SweepJob plus the universe pieces a
/// serial re-verification needs, plus the per-job wire options.
struct WireJob {
    SweepJob job;

    /// Universe members before any "members" range slicing.
    std::size_t universe_members = 0;
    /// Global member id of this job's local member 0 ("members".first).
    std::size_t member_offset = 0;

    // Universe pieces (already sliced to the member range).
    std::vector<double> deviations; ///< deviation jobs
    core::SweptParameter parameter = core::SweptParameter::f0;
    bool is_spice = false;
    std::vector<capture::NetlistFault> faults; ///< spice jobs
    std::shared_ptr<const spice::Netlist> nominal;
    core::SpiceObservation observation{};

    // Wire options.
    int version = 1;
    std::string id;
    std::size_t progress_every = 0;
    bool emit_signatures = true;
    bool verify_serial = false;

    // Scheduling options (version 2).
    int priority = 0;   ///< higher dispatches first
    std::string client; ///< fair-share identity; "" = anonymous

    /// Exact content fingerprint of the FULL universe spec (hexfloat
    /// values, built before member-range slicing, range excluded) — the
    /// job half of the scheduler's whole-job cache key. Empty only for
    /// universe kinds the cache does not cover.
    std::string universe_key;
};

/// Decodes one job object (already JSON-parsed). Throws InvalidInput on a
/// schema violation or an unsupported protocol version; ignores unknown
/// fields. Deviation grids are materialised over the FULL universe before
/// the member range is sliced out, so a member's deviation value is a
/// function of its global id only — that is what keeps fan-out partitions
/// bit-identical to the unpartitioned job.
[[nodiscard]] WireJob parse_wire_job(const JsonValue& v);

/// Serial reference evaluation of the (sliced) universe on the calling
/// thread — the clone-per-fault universe from build_fault_universe for
/// SPICE jobs, i.e. the independent check of the service's clone-reuse
/// scheme. The pipeline's golden must already be set (as in
/// SweepService::job_pipeline).
[[nodiscard]] std::vector<double>
wire_serial_reference(const WireJob& job, const core::SignaturePipeline& pipe);

/// Validates one protocol line — request (job/cmd) or event — against the
/// schema in docs/PROTOCOL.md: required fields present with the right
/// JSON types, event/cmd names known. Unknown extra fields are tolerated
/// (the version rule). Throws InvalidInput with a reason on violation.
void check_protocol_line(const std::string& line);

/// Per-session settings.
struct SessionOptions {
    /// Emit a `heartbeat` event every this-many seconds (0 = off). The
    /// liveness signal for coordinators with inactivity timeouts: a busy
    /// worker whose results are slow still proves it is alive between
    /// result lines (protocol v3).
    double heartbeat_seconds = 0.0;
};

/// Runs wire requests against a SweepService through a JobScheduler and
/// emits NDJSON event lines through the sink. serve() is the one request
/// loop every peer runs: each request line is handled without blocking on
/// jobs — a job line is decoded, submitted and acknowledged with a
/// `queued` event, and the job's own events (job_start/result/progress/
/// job_done/verify or error) are emitted by the scheduler's thread that
/// moves it, through a per-job JobSink. A running job's results go from
/// the service's in-order delivery straight to the line sink, so multiple
/// in-flight jobs interleave on one connection while each job's own events
/// stay in order, and a `cancel` is applied as soon as it is read. A peer
/// that stops reading blocks the running job inside the line sink; queued
/// jobs then wait without running. {"cmd":"quit"} drains every in-flight
/// job before serve returns, so no event line is ever lost to an exiting
/// peer.
///
/// Thread-safety: serve()/drain() are driven by ONE reader thread, so
/// every request (cancels included) arrives in-band on it; the line sink is
/// invoked under an internal lock, one complete line at a time, from the
/// reader, the scheduler's dispatcher or the heartbeat thread.
class ServerSession {
public:
    using LineSink = std::function<void(const std::string& line)>;

    ServerSession(SweepService& service, LineSink sink,
                  SessionOptions options = {});
    ~ServerSession(); ///< cancels queued and running jobs

    ServerSession(const ServerSession&) = delete;
    ServerSession& operator=(const ServerSession&) = delete;

    /// Emits the ready banner (version, workers, spp).
    void emit_ready(std::size_t samples_per_period);

    /// Blocking request loop over `fd`: reads '\n'-terminated lines,
    /// skips whitespace-only ones (PROTOCOL.md: blank lines are ignored)
    /// and handles each other line until {"cmd":"quit"} (after draining)
    /// or EOF (without draining — the caller decides). Protocol errors
    /// are reported as error events and keep the loop alive.
    void serve(int fd);

    /// Blocks until every submitted job has emitted its last event (the
    /// EOF path of sweep_server; quit calls this internally).
    void drain();

    /// False once any verify_serial check has failed (sweep_server exits
    /// non-zero on this).
    [[nodiscard]] bool all_verified() const noexcept {
        return all_verified_.load(std::memory_order_acquire);
    }

private:
    class JobLines; ///< the JobSink writing one job's events as lines

    /// Processes one request line; false when it was {"cmd":"quit"}.
    bool handle_line(const std::string& line);
    void emit(JsonValue::Object obj) EXCLUDES(sink_mutex_);
    void emit_error(const std::string& id, const std::string& message);
    void submit_job(const JsonValue& v);
    void emit_stats();

    SweepService& service_;
    /// Immutable after construction; sink_mutex_ serialises *invocations*
    /// (whole emitted lines), not the function object itself.
    LineSink sink_;
    Mutex sink_mutex_;
    std::atomic<bool> all_verified_{true};
    std::unique_ptr<JobScheduler> scheduler_;

    // Heartbeat thread (protocol v3 liveness; only when
    // SessionOptions::heartbeat_seconds > 0).
    std::thread heartbeat_thread_;
    Mutex heartbeat_mutex_;
    CondVar heartbeat_cv_;
    bool heartbeat_stop_ GUARDED_BY(heartbeat_mutex_) = false;
};

} // namespace xysig::server

#endif // XYSIG_SERVER_WIRE_H
