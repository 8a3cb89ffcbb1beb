#include "server/transport.h"

#include <cerrno>
#include <csignal>
#include <cstring>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/contracts.h"
#include "server/fd_io.h"
#include "server/wire.h"

namespace xysig::server {

namespace {

[[nodiscard]] std::string errno_message(const char* what) {
    return std::string("transport: ") + what + " failed: " +
           std::strerror(errno);
}

/// A connected AF_UNIX stream socket pair. SOCK_CLOEXEC: without it each
/// child would inherit the sockets of every OTHER live transport, and
/// closing a worker's end would no longer deliver EOF (a sibling still
/// holds a duplicate) — teardown would always eat the kill grace.
void open_socketpair(int (&fds)[2]) {
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0)
        throw Error(errno_message("socketpair"));
}

} // namespace

// ------------------------------------------------------------ StreamTransport

StreamTransport::StreamTransport() { detail::ignore_sigpipe_once(); }

StreamTransport::~StreamTransport() { StreamTransport::shutdown(); }

bool StreamTransport::send_line(const std::string& line) {
    if (fd_ < 0)
        return false;
    return detail::fd_write_line(fd_, line);
}

Transport::ReadStatus StreamTransport::read_line(std::string& out,
                                                 double timeout_seconds) {
    return detail::fd_read_line(fd_, buffer_, out, timeout_seconds);
}

void StreamTransport::shutdown() {
    if (fd_ < 0)
        return;
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    fd_ = -1;
}

// ----------------------------------------------------------- ProcessTransport

ProcessTransport::ProcessTransport(std::vector<std::string> argv)
    : argv_(std::move(argv)) {
    XYSIG_EXPECTS(!argv_.empty());
    int fds[2] = {-1, -1};
    open_socketpair(fds);
    fd_ = fds[0]; // closed by ~StreamTransport if fork fails

    // Built BEFORE fork(): in a multithreaded parent another thread may
    // hold the allocator lock at fork time, so the child must not malloc
    // between fork and exec.
    std::vector<char*> cargv;
    cargv.reserve(argv_.size() + 1);
    for (std::string& arg : argv_)
        cargv.push_back(arg.data());
    cargv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[1]);
        throw Error(errno_message("fork"));
    }
    if (pid == 0) {
        // dup2 clears close-on-exec on fds 0/1, so only they survive exec.
        ::dup2(fds[1], STDIN_FILENO);
        ::dup2(fds[1], STDOUT_FILENO);
        ::execvp(cargv[0], cargv.data());
        ::_exit(127); // exec failed; the parent sees EOF and reports closed
    }
    ::close(fds[1]);
    pid_ = pid;
}

ProcessTransport::~ProcessTransport() { shutdown(); }

void ProcessTransport::shutdown() {
    // Close first: the child's request loop reads EOF, and a child blocked
    // writing a full socket fails with EPIPE instead of eating the kill
    // grace below.
    StreamTransport::shutdown();
    if (pid_ <= 0)
        return;
    const pid_t pid = static_cast<pid_t>(pid_);
    bool reaped = false;
    // ~2 s of grace for a clean exit, then SIGKILL a wedged child — a
    // worker being torn down is by definition not trusted to cooperate.
    for (int i = 0; i < 200 && !reaped; ++i) {
        int status = 0;
        const pid_t r = ::waitpid(pid, &status, WNOHANG);
        if (r == pid || (r < 0 && errno != EINTR)) {
            reaped = true;
            break;
        }
        ::usleep(10'000);
    }
    if (!reaped) {
        ::kill(pid, SIGKILL);
        int status = 0;
        while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
        }
    }
    pid_ = -1;
}

std::string ProcessTransport::describe() const {
    return "process[" + (pid_ > 0 ? std::to_string(pid_) : "dead") + ", " +
           argv_.front() + "]";
}

// ----------------------------------------------------------------- ServedPeer

namespace {

/// The body of a ServedPeer's thread.
void serve_peer(int fd, unsigned workers, std::size_t samples_per_period,
                const SessionOptions& session) {
    try {
        SweepService service(make_paper_pipeline(samples_per_period),
                             SweepServiceOptions{workers});
        ServerSession peer(
            service,
            [fd](const std::string& line) {
                // A dead client surfaces as a failed write; the serve loop
                // notices the close and tears the session down.
                detail::fd_write_line(fd, line);
            },
            session);
        peer.emit_ready(samples_per_period);
        peer.serve(fd);
        // ~ServerSession: quit has drained; on EOF the queued and running
        // jobs are cancelled, so an abandoned connection stops promptly.
    } catch (const std::exception&) {
        // Must not unwind the serving thread; the client just sees its
        // socket close.
    }
    ::shutdown(fd, SHUT_RDWR);
}

} // namespace

detail::ServedPeer::ServedPeer(int fd, unsigned workers,
                               std::size_t samples_per_period,
                               const SessionOptions& session)
    : fd_(fd) {
    ignore_sigpipe_once(); // a client that vanishes fails our writes instead
    try {
        thread_ = std::thread([this, workers, samples_per_period, session] {
            serve_peer(fd_, workers, samples_per_period, session);
            finished_.store(true, std::memory_order_release);
        });
    } catch (...) {
        ::close(fd_);
        throw;
    }
}

detail::ServedPeer::~ServedPeer() {
    ::shutdown(fd_, SHUT_RDWR); // the serve loop reads EOF
    thread_.join();
    ::close(fd_);
}

// ---------------------------------------------------------- LoopbackTransport

LoopbackTransport::LoopbackTransport(Options options) : options_(options) {
    int fds[2] = {-1, -1};
    open_socketpair(fds);
    fd_ = fds[0]; // closed by ~StreamTransport if the peer fails to start
    peer_ = std::make_unique<detail::ServedPeer>(
        fds[1], options_.workers, options_.samples_per_period,
        SessionOptions{});
}

LoopbackTransport::~LoopbackTransport() { shutdown(); }

void LoopbackTransport::shutdown() {
    // The session's serve loop reads EOF, its line writes fail with EPIPE
    // and its teardown cancels every job, so the join waits only for the
    // members in flight.
    StreamTransport::shutdown();
    peer_.reset();
}

std::string LoopbackTransport::describe() const {
    return "loopback[workers=" + std::to_string(options_.workers) + "]";
}

} // namespace xysig::server
