#ifndef XYSIG_SERVER_TRANSPORT_H
#define XYSIG_SERVER_TRANSPORT_H

/// \file transport.h
/// Line transports for the fan-out driver: one Transport == one worker
/// peer speaking the NDJSON protocol (docs/PROTOCOL.md).
///
/// Every peer is one connected stream socket. Its client end is a
/// StreamTransport, which frames lines on it (fd_io.h); subclasses differ
/// only in how they open the socket and what they reap or join at
/// shutdown:
///
///  * ProcessTransport launches a `sweep_server` child process whose stdin
///    and stdout are both the other end of a socketpair — the production
///    multi-process path.
///  * LoopbackTransport serves the other end of an in-process socketpair
///    with a detail::ServedPeer, the exact per-connection code a
///    TcpListener runs: its own SweepService, the ready banner,
///    ServerSession::serve. Fan-out tests thus take the real peers' path
///    with no child processes; a dying worker is injected by decorating
///    the transport (tests/support/chaos.h, ChaosMode::disconnect).
///  * TcpTransport (tcp_transport.h) connects to a `sweep_server --listen`
///    host.
///
/// Thread-safety: one transport is driven by one coordinator thread
/// (send_line / read_line are not required to be concurrently callable);
/// shutdown() may be called from that same thread only.

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace xysig::server {

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

    /// Tears the peer down (closes the connection, then reaps the child
    /// process / joins the loopback session thread). Idempotent.
    virtual void shutdown() = 0;

    /// Human-readable peer description for error messages and summaries.
    [[nodiscard]] virtual std::string describe() const = 0;
};

/// The client end of a peer: one connected stream socket, framed by
/// fd_io.h. A subclass stores the socket in fd_ once it has opened it;
/// its own shutdown() calls StreamTransport::shutdown() first, then reaps
/// or joins what serves the other end.
class StreamTransport : public Transport {
public:
    ~StreamTransport() override;

    StreamTransport(const StreamTransport&) = delete;
    StreamTransport& operator=(const StreamTransport&) = delete;

    bool send_line(const std::string& line) final;
    ReadStatus read_line(std::string& out, double timeout_seconds) final;
    /// Shuts the socket down and closes it: the peer reads EOF, and a
    /// peer blocked writing to it fails with EPIPE. Idempotent.
    void shutdown() override;

protected:
    StreamTransport(); ///< ignores SIGPIPE (once per process)

    /// The connected socket: -1 until the subclass opens it, and again
    /// after shutdown().
    int fd_ = -1;

private:
    std::string buffer_; ///< partial-line carry between reads
};

/// Spawns `argv` (argv[0] = the sweep_server binary) with one end of a
/// socketpair as its stdin and stdout. read_line polls the socket, so
/// per-read timeouts work; shutdown closes the socket (the server's
/// request loop exits on EOF, a write blocked on a full socket fails with
/// EPIPE), waits briefly, then SIGKILLs a wedged child.
class ProcessTransport final : public StreamTransport {
public:
    explicit ProcessTransport(std::vector<std::string> argv);
    ~ProcessTransport() override;

    void shutdown() override;
    [[nodiscard]] std::string describe() const override;

private:
    std::vector<std::string> argv_;
    long pid_ = -1; ///< child pid (long to keep <sys/types.h> out of here)
};

namespace detail {

/// The server end of one connected stream socket, owning `fd`: what
/// TcpListener runs per accepted connection and LoopbackTransport runs on
/// its socketpair. A thread serves the socket with a ServerSession on its
/// own paper-pipeline SweepService of `workers`: the ready banner,
/// ServerSession::serve until quit or EOF, then ::shutdown of the socket so
/// the client reads EOF. Per-connection failures (service construction,
/// OOM) are swallowed: the client just sees its socket close.
///
/// Destruction shuts the socket down (the serve loop reads EOF and cancels
/// its jobs, so the join waits only for the members in flight), joins the
/// thread, then closes the fd: the one place it is closed, so the fd
/// number is never reused while the thread may still use it.
class ServedPeer {
public:
    ServedPeer(int fd, unsigned workers, std::size_t samples_per_period,
               const SessionOptions& session);
    ~ServedPeer();

    ServedPeer(const ServedPeer&) = delete;
    ServedPeer& operator=(const ServedPeer&) = delete;

    /// True once the session has ended; destroying the peer then waits for
    /// nothing.
    [[nodiscard]] bool finished() const noexcept {
        return finished_.load(std::memory_order_acquire);
    }

private:
    const int fd_;
    std::atomic<bool> finished_{false};
    std::thread thread_;
};

} // namespace detail

/// In-process peer over socketpair(AF_UNIX, SOCK_STREAM): a
/// detail::ServedPeer serves one end (a private SweepService on the paper
/// pipeline, as in sweep_server); this transport frames lines on the
/// other.
class LoopbackTransport final : public StreamTransport {
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

    void shutdown() override;
    [[nodiscard]] std::string describe() const override;

private:
    Options options_;
    std::unique_ptr<detail::ServedPeer> peer_; ///< serves the other end
};

} // namespace xysig::server

#endif // XYSIG_SERVER_TRANSPORT_H
