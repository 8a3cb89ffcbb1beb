#include "server/transport.h"

#include <cerrno>
#include <csignal>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/contracts.h"
#include "server/fd_io.h"
#include "server/wire.h"

namespace xysig::server {

// ----------------------------------------------------------- ProcessTransport

namespace {

[[nodiscard]] std::string errno_message(const char* what) {
    return std::string("transport: ") + what + " failed: " +
           std::strerror(errno);
}

} // namespace

ProcessTransport::ProcessTransport(std::vector<std::string> argv)
    : argv_(std::move(argv)) {
    XYSIG_EXPECTS(!argv_.empty());
    detail::ignore_sigpipe_once();

    // O_CLOEXEC on every pipe end: without it each child would inherit the
    // pipes of every OTHER live transport, and closing a worker's stdin
    // would no longer deliver EOF (a sibling still holds a duplicate write
    // end) — teardown would always eat the kill grace. dup2 clears the
    // flag on fds 0/1, so the child's own ends survive exec.
    int to_child[2] = {-1, -1};
    int from_child[2] = {-1, -1};
    if (::pipe2(to_child, O_CLOEXEC) != 0)
        throw Error(errno_message("pipe2"));
    if (::pipe2(from_child, O_CLOEXEC) != 0) {
        ::close(to_child[0]);
        ::close(to_child[1]);
        throw Error(errno_message("pipe2"));
    }

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
        for (const int fd : {to_child[0], to_child[1], from_child[0],
                             from_child[1]})
            ::close(fd);
        throw Error(errno_message("fork"));
    }
    if (pid == 0) {
        ::dup2(to_child[0], STDIN_FILENO);
        ::dup2(from_child[1], STDOUT_FILENO);
        ::execvp(cargv[0], cargv.data());
        ::_exit(127); // exec failed; the parent sees EOF and reports closed
    }

    ::close(to_child[0]);
    ::close(from_child[1]);
    pid_ = pid;
    stdin_fd_ = to_child[1];
    stdout_fd_ = from_child[0];
}

ProcessTransport::~ProcessTransport() { shutdown(); }

bool ProcessTransport::send_line(const std::string& line) {
    // fd_write_all loops over short writes and EINTR — a partial write()
    // on a full pipe must never be treated as success (the child would
    // see a truncated line mid-JSON and the driver would kill it).
    if (stdin_fd_ < 0)
        return false;
    return detail::fd_write_line(stdin_fd_, line);
}

Transport::ReadStatus ProcessTransport::read_line(std::string& out,
                                                  double timeout_seconds) {
    return detail::fd_read_line(stdout_fd_, buffer_, out, timeout_seconds);
}

void ProcessTransport::shutdown() {
    if (stdin_fd_ >= 0) {
        ::close(stdin_fd_); // the server's request loop exits on stdin EOF
        stdin_fd_ = -1;
    }
    if (stdout_fd_ >= 0) {
        // Close the read side BEFORE reaping: a child mid-stream can be
        // blocked in write() on a full stdout pipe (nobody reads it once we
        // decided to tear the peer down); with the read end gone it dies on
        // EPIPE instead of eating the whole kill grace below.
        ::close(stdout_fd_);
        stdout_fd_ = -1;
    }
    if (pid_ > 0) {
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
}

std::string ProcessTransport::describe() const {
    return "process[" + (pid_ > 0 ? std::to_string(pid_) : "dead") + ", " +
           argv_.front() + "]";
}

// ---------------------------------------------------------- LoopbackTransport

LoopbackTransport::LoopbackTransport(Options options) : options_(options) {
    detail::ignore_sigpipe_once();
    int fds[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0)
        throw Error(errno_message("socketpair"));
    fd_ = fds[0];
    server_fd_ = fds[1];
    try {
        thread_ = std::thread([fd = server_fd_, o = options_] {
            detail::serve_peer(fd, nullptr, o.workers, o.samples_per_period,
                               SessionOptions{});
        });
    } catch (...) {
        ::close(fd_);
        ::close(server_fd_);
        throw;
    }
}

LoopbackTransport::~LoopbackTransport() { shutdown(); }

bool LoopbackTransport::send_line(const std::string& line) {
    if (fd_ < 0)
        return false;
    return detail::fd_write_line(fd_, line);
}

Transport::ReadStatus LoopbackTransport::read_line(std::string& out,
                                                   double timeout_seconds) {
    return detail::fd_read_line(fd_, buffer_, out, timeout_seconds);
}

void LoopbackTransport::shutdown() {
    if (fd_ < 0)
        return;
    // The session's serve loop reads EOF, its line writes fail with EPIPE
    // and its teardown cancels every job, so the join below waits only for
    // the members in flight.
    ::shutdown(fd_, SHUT_RDWR);
    thread_.join();
    ::close(fd_);
    ::close(server_fd_);
    fd_ = server_fd_ = -1;
}

std::string LoopbackTransport::describe() const {
    return "loopback[workers=" + std::to_string(options_.workers) + "]";
}

// ----------------------------------------------------------------- serve_peer

void detail::serve_peer(int fd, std::shared_ptr<SweepService> service,
                        unsigned workers, std::size_t samples_per_period,
                        const SessionOptions& session) {
    try {
        if (service == nullptr)
            service = std::make_shared<SweepService>(
                make_paper_pipeline(samples_per_period),
                SweepServiceOptions{workers});
        ServerSession peer(
            *service,
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
        // Must not unwind the serving thread (or a TcpListener's accept
        // loop); the client just sees its socket close.
    }
    ::shutdown(fd, SHUT_RDWR);
}

} // namespace xysig::server
