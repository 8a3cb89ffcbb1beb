#ifndef XYSIG_SERVER_TRANSPORT_H
#define XYSIG_SERVER_TRANSPORT_H

/// \file transport.h
/// Line transports for the fan-out driver: one Transport == one worker
/// peer speaking the NDJSON protocol (docs/PROTOCOL.md).
///
///  * ProcessTransport launches a `sweep_server` child process and pipes
///    request lines to its stdin / event lines from its stdout — the
///    production multi-process path.
///  * LoopbackTransport serves one end of an in-process socketpair with
///    the exact per-connection code a TcpListener runs (serve_peer): its
///    own SweepService, the ready banner, ServerSession::serve. Fan-out
///    tests thus take the real peers' path with no child processes; a
///    dying worker is injected by decorating the transport (chaos.h,
///    ChaosMode::disconnect).
///
/// Thread-safety: one transport is driven by one coordinator thread
/// (send_line / read_line are not required to be concurrently callable);
/// shutdown() may be called from that same thread only.

#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace xysig::server {

class SweepService;
struct SessionOptions;

/// One NDJSON peer connection.
class Transport {
public:
    enum class ReadStatus {
        line,    ///< a complete line was read into `out`
        timeout, ///< nothing arrived within the timeout; peer still alive
        closed,  ///< the peer is gone (process exit / injected death)
    };

    virtual ~Transport() = default;

    /// Sends one request line (without the trailing newline). Returns
    /// false when the peer is already gone.
    virtual bool send_line(const std::string& line) = 0;

    /// Blocks up to timeout_seconds for one event line (timeout <= 0
    /// waits indefinitely). Buffered lines are drained before a closed
    /// peer reports ReadStatus::closed.
    virtual ReadStatus read_line(std::string& out, double timeout_seconds) = 0;

    /// Tears the peer down (closes the child's stdin and reaps it / shuts
    /// the socket down and joins the loopback session thread). Idempotent.
    virtual void shutdown() = 0;

    /// Human-readable peer description for error messages and summaries.
    [[nodiscard]] virtual std::string describe() const = 0;
};

/// Spawns `argv` (argv[0] = the sweep_server binary) with stdin/stdout
/// pipes. read_line polls the pipe, so per-read timeouts work; shutdown
/// closes the child's stdin (the server's getline loop exits on EOF),
/// waits briefly, then SIGKILLs a wedged child.
class ProcessTransport final : public Transport {
public:
    explicit ProcessTransport(std::vector<std::string> argv);
    ~ProcessTransport() override;

    ProcessTransport(const ProcessTransport&) = delete;
    ProcessTransport& operator=(const ProcessTransport&) = delete;

    bool send_line(const std::string& line) override;
    ReadStatus read_line(std::string& out, double timeout_seconds) override;
    void shutdown() override;
    [[nodiscard]] std::string describe() const override;

private:
    std::vector<std::string> argv_;
    long pid_ = -1;     ///< child pid (long to keep <sys/types.h> out of here)
    int stdin_fd_ = -1; ///< write end of the child's stdin
    int stdout_fd_ = -1; ///< read end of the child's stdout
    std::string buffer_; ///< partial-line carry between reads
};

/// In-process peer over socketpair(AF_UNIX, SOCK_STREAM): a thread runs
/// serve_peer on one end (a private SweepService on the paper pipeline,
/// as in sweep_server); this transport frames lines on the other end.
class LoopbackTransport final : public Transport {
public:
    struct Options {
        unsigned workers = 2;
        std::size_t samples_per_period = 256;
    };

    // No `Options options = {}` default argument: NSDMIs of a nested class
    // are parsed only at the end of the outermost class, so the default
    // would not compile here (same gotcha as SweepJob's universe structs).
    LoopbackTransport() : LoopbackTransport(Options{}) {}
    explicit LoopbackTransport(Options options);
    ~LoopbackTransport() override;

    LoopbackTransport(const LoopbackTransport&) = delete;
    LoopbackTransport& operator=(const LoopbackTransport&) = delete;

    bool send_line(const std::string& line) override;
    ReadStatus read_line(std::string& out, double timeout_seconds) override;
    void shutdown() override;
    [[nodiscard]] std::string describe() const override;

private:
    Options options_;
    int fd_ = -1;        ///< client end, framed by send_line/read_line
    int server_fd_ = -1; ///< served by thread_; closed after the join
    std::string buffer_; ///< partial-line carry between reads
    std::thread thread_;
};

namespace detail {

/// The server side of one connected stream socket — what TcpListener runs
/// per accepted connection and LoopbackTransport runs on its socketpair: a
/// ServerSession on `service` (null = a fresh paper-pipeline SweepService
/// of `workers`), the ready banner, ServerSession::serve
/// until quit or EOF, then ::shutdown of `fd` so the client reads EOF.
/// Per-connection failures (service construction, OOM) are swallowed: the
/// client just sees the socket close. Closing `fd` is left to the caller,
/// after the serving thread is joined.
void serve_peer(int fd, std::shared_ptr<SweepService> service,
                unsigned workers, std::size_t samples_per_period,
                const SessionOptions& session);

} // namespace detail

} // namespace xysig::server

#endif // XYSIG_SERVER_TRANSPORT_H
