#ifndef XYSIG_SERVER_TCP_TRANSPORT_H
#define XYSIG_SERVER_TCP_TRANSPORT_H

/// \file tcp_transport.h
/// Socket transport for the sweep fabric: the piece that lets
/// `FanoutDriver` spread partitions across hosts instead of across child
/// processes.
///
///  * TcpTransport — one NDJSON peer connection to a listening
///    `sweep_server --listen` (or in-process TcpListener). Connects with
///    bounded exponential-backoff retry (a worker that is still booting,
///    or a connection broken mid-job, is retried rather than failed on
///    the first ECONNREFUSED); the peer's ready banner is then the first
///    line read_line() returns, exactly as on the other transports, and
///    FanoutDriver's handshake checks its `version` like every other
///    peer's. Line framing is StreamTransport's (transport.h).
///
///  * TcpListener — the accept loop behind `sweep_server --listen`: binds
///    a port (0 = ephemeral; port() reports the bound one), accepts
///    connections, and serves each with a detail::ServedPeer — its own
///    ServerSession, request loop and SweepService (own worker pool, so N
///    fan-out partitions connecting to one host actually run
///    concurrently). Only stop() ends the accept loop: a failed accept()
///    (the fd limit, an aborted connection) frees the finished
///    connections' fds and retries. Usable in-process (tests, bench) and
///    from the sweep_server binary; `run()` serves on the calling thread,
///    `start()`/`stop()` manage a background accept thread.
///
/// Thread-safety: TcpTransport follows the Transport contract (one
/// coordinator thread). TcpListener::start/stop may be called from one
/// controlling thread; each connection is served by its own thread and
/// every session's sink is internally serialised.

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/annotated_mutex.h"
#include "server/transport.h"
#include "server/wire.h"

namespace xysig::server {

/// One NDJSON connection to a listening sweep server. The constructor
/// connects with retry and exponential backoff (5 attempts, 0.05 s first
/// backoff doubling up to 1 s, 10 s overall); it throws Error when the
/// peer cannot be reached within that budget — FanoutDriver treats a
/// throwing factory as a failed dispatch attempt.
class TcpTransport final : public StreamTransport {
public:
    TcpTransport(std::string host, unsigned short port);

    [[nodiscard]] std::string describe() const override;

    /// Connect attempts the constructor consumed (>= 1; exposed so tests
    /// can pin the backoff-retry path).
    [[nodiscard]] unsigned connect_attempts() const noexcept {
        return connect_attempts_;
    }

private:
    void connect();

    std::string host_;
    unsigned short port_ = 0;
    unsigned connect_attempts_ = 0;
};

/// Accept loop serving ServerSessions over TCP. One listener per
/// process/port; one session and one SweepService per accepted
/// connection.
class TcpListener {
public:
    struct Options {
        std::string bind_address = "0.0.0.0";
        unsigned short port = 0; ///< 0 = ephemeral; see port()
        /// Per-connection service configuration (as sweep_server's flags).
        unsigned workers = 0;
        std::size_t samples_per_period = 512;
        SessionOptions session; ///< per-session heartbeat
    };

    explicit TcpListener(Options options); ///< binds + listens; throws Error
    ~TcpListener();                        ///< stop()

    TcpListener(const TcpListener&) = delete;
    TcpListener& operator=(const TcpListener&) = delete;

    /// The bound port (resolves ephemeral port 0).
    [[nodiscard]] unsigned short port() const noexcept { return port_; }

    /// Accept-and-serve on a background thread / on the calling thread.
    void start();
    void run();

    /// Stops accepting, shuts live connections down (their blocked reads
    /// see EOF), joins every thread. Idempotent; unblocks a concurrent
    /// run().
    void stop();

    /// Connections accepted over the listener's lifetime.
    [[nodiscard]] std::size_t connections_accepted() const noexcept {
        return connections_accepted_.load(std::memory_order_relaxed);
    }

private:
    void accept_loop();

    Options options_;
    const int listen_fd_; ///< closed by the destructor only
    unsigned short port_ = 0;
    std::atomic<bool> stopping_{false};
    std::atomic<std::size_t> connections_accepted_{0};

    Mutex connections_mutex_;
    std::vector<std::unique_ptr<detail::ServedPeer>> connections_
        GUARDED_BY(connections_mutex_);

    std::thread accept_thread_;
};

} // namespace xysig::server

#endif // XYSIG_SERVER_TCP_TRANSPORT_H
