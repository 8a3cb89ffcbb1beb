#include "server/tcp_transport.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/error.h"

namespace xysig::server {

namespace {

[[nodiscard]] std::string errno_message(const char* what) {
    return std::string("tcp: ") + what + " failed: " + std::strerror(errno);
}

/// getaddrinfo wrapper with RAII release; throws Error on resolver failure.
class AddrInfo {
public:
    AddrInfo(const std::string& host, unsigned short port, bool passive) {
        struct addrinfo hints {};
        hints.ai_family = AF_UNSPEC;
        hints.ai_socktype = SOCK_STREAM;
        hints.ai_flags = AI_NUMERICSERV | (passive ? AI_PASSIVE : 0);
        const std::string service = std::to_string(port);
        const int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(),
                                     service.c_str(), &hints, &list_);
        if (rc != 0)
            throw Error("tcp: cannot resolve " + host + ":" + service + ": " +
                        ::gai_strerror(rc));
    }
    ~AddrInfo() {
        if (list_ != nullptr)
            ::freeaddrinfo(list_);
    }
    AddrInfo(const AddrInfo&) = delete;
    AddrInfo& operator=(const AddrInfo&) = delete;

    [[nodiscard]] const struct addrinfo* begin() const noexcept {
        return list_;
    }

private:
    struct addrinfo* list_ = nullptr;
};

void set_nodelay(int fd) {
    // Every protocol line is a small write that the peer acts on
    // immediately (job submit, cancel, heartbeat); Nagle would batch them
    // behind unacked data and inflate exactly the latencies the
    // inactivity timeout measures.
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Connect retry budget: attempts (the first included), the backoff
/// before retry k is kInitialBackoffSeconds * 2^(k-1) capped at
/// kMaxBackoffSeconds, and the wall-clock across attempts and backoffs.
constexpr unsigned kMaxConnectAttempts = 5;
constexpr double kInitialBackoffSeconds = 0.05;
constexpr double kMaxBackoffSeconds = 1.0;
constexpr double kConnectTimeoutSeconds = 10.0;

[[nodiscard]] double monotonic_seconds() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

// --------------------------------------------------------------- TcpTransport

TcpTransport::TcpTransport(std::string host, unsigned short port)
    : host_(std::move(host)), port_(port) {
    connect();
}

void TcpTransport::connect() {
    const double deadline = monotonic_seconds() + kConnectTimeoutSeconds;
    std::string last_error = "no connect attempt made";
    double backoff = kInitialBackoffSeconds;

    for (unsigned attempt = 1; attempt <= kMaxConnectAttempts; ++attempt) {
        connect_attempts_ = attempt;
        if (attempt > 1) {
            // Exponential backoff between attempts, clipped to both the
            // per-step cap and the remaining overall budget.
            double sleep_for = backoff;
            backoff = std::min(backoff * 2.0, kMaxBackoffSeconds);
            const double remaining = deadline - monotonic_seconds();
            if (remaining <= 0.0)
                break;
            sleep_for = std::min(sleep_for, remaining);
            ::usleep(static_cast<useconds_t>(sleep_for * 1e6));
        }

        try {
            const AddrInfo addrs(host_, port_, /*passive=*/false);
            for (const struct addrinfo* ai = addrs.begin(); ai != nullptr;
                 ai = ai->ai_next) {
                const int fd = ::socket(ai->ai_family, ai->ai_socktype,
                                        ai->ai_protocol);
                if (fd < 0) {
                    last_error = errno_message("socket");
                    continue;
                }
                if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
                    set_nodelay(fd);
                    fd_ = fd;
                    return;
                }
                last_error = errno_message("connect");
                ::close(fd);
            }
        } catch (const Error& e) {
            last_error = e.what(); // resolver failure; retried like refused
        }
        if (monotonic_seconds() >= deadline)
            break;
    }
    throw Error("tcp: cannot connect to " + host_ + ":" +
                std::to_string(port_) + " after " +
                std::to_string(connect_attempts_) + " attempt(s): " +
                last_error);
}

std::string TcpTransport::describe() const {
    return "tcp[" + host_ + ":" + std::to_string(port_) +
           (fd_ >= 0 ? "" : ", closed") + "]";
}

// ---------------------------------------------------------------- TcpListener

namespace {

/// A socket bound to address:port and listening; throws Error when no
/// resolved address can be bound.
[[nodiscard]] int listen_socket(const std::string& address,
                                unsigned short port) {
    const AddrInfo addrs(address, port, /*passive=*/true);
    std::string last_error = "no usable address";
    for (const struct addrinfo* ai = addrs.begin(); ai != nullptr;
         ai = ai->ai_next) {
        const int fd =
            ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0) {
            last_error = errno_message("socket");
            continue;
        }
        int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        if (::bind(fd, ai->ai_addr, ai->ai_addrlen) != 0 ||
            ::listen(fd, 64) != 0) {
            last_error = errno_message("bind/listen");
            ::close(fd);
            continue;
        }
        return fd;
    }
    throw Error("tcp: cannot listen on " + address + ":" +
                std::to_string(port) + ": " + last_error);
}

} // namespace

TcpListener::TcpListener(Options options)
    : options_(std::move(options)),
      listen_fd_(listen_socket(options_.bind_address, options_.port)) {
    // Resolve the ephemeral port before anyone asks for it.
    struct sockaddr_storage addr {};
    socklen_t len = sizeof(addr);
    if (::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                      &len) != 0) {
        const std::string message = errno_message("getsockname");
        ::close(listen_fd_);
        throw Error(message);
    }
    if (addr.ss_family == AF_INET)
        port_ = ntohs(reinterpret_cast<struct sockaddr_in*>(&addr)->sin_port);
    else if (addr.ss_family == AF_INET6)
        port_ =
            ntohs(reinterpret_cast<struct sockaddr_in6*>(&addr)->sin6_port);
}

TcpListener::~TcpListener() {
    stop();
    ::close(listen_fd_); // every thread that reads it has been joined
}

void TcpListener::start() {
    accept_thread_ = std::thread([this] { accept_loop(); });
}

void TcpListener::run() { accept_loop(); }

void TcpListener::accept_loop() {
    while (!stopping_.load(std::memory_order_acquire)) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (stopping_.load(std::memory_order_acquire)) {
            if (fd >= 0)
                ::close(fd);
            break;
        }
        if (fd < 0 && errno != EINTR) {
            // Only stop() ends the loop. Any other failure (EMFILE/ENFILE
            // at the fd limit, ECONNABORTED, ...) is retried after a
            // pause; the reap below meanwhile frees the fds of finished
            // connections, which would otherwise wait for the next
            // successful accept.
            ::usleep(10'000);
        }
        MutexLock lock(connections_mutex_);
        std::erase_if(connections_,
                      [](const auto& peer) { return peer->finished(); });
        if (fd < 0)
            continue;
        set_nodelay(fd);
        connections_accepted_.fetch_add(1, std::memory_order_relaxed);
        // One service per connection: a fan-out driver opening N
        // connections to one host gets N independent worker pools,
        // mirroring the N-child process topology.
        connections_.push_back(std::make_unique<detail::ServedPeer>(
            fd, options_.workers, options_.samples_per_period,
            options_.session));
    }
}

void TcpListener::stop() {
    if (stopping_.exchange(true, std::memory_order_acq_rel))
        return;
    // shutdown() unblocks a thread parked in accept() (close alone is not
    // guaranteed to on all kernels). The descriptor stays open until the
    // destructor, so a concurrent accept_loop never reads a changing fd.
    ::shutdown(listen_fd_, SHUT_RDWR);
    if (accept_thread_.joinable())
        accept_thread_.join();

    std::vector<std::unique_ptr<detail::ServedPeer>> peers;
    {
        MutexLock lock(connections_mutex_);
        peers.swap(connections_);
    }
    peers.clear(); // each shuts its socket down, joins, then closes it
}

} // namespace xysig::server
