#ifndef XYSIG_SERVER_FD_IO_H
#define XYSIG_SERVER_FD_IO_H

/// \file fd_io.h
/// Shared file-descriptor line framing for the NDJSON transports.
///
/// Both ends of every peer speak the exact same framing — one
/// '\n'-terminated JSON object per line: the client end
/// (StreamTransport, under ProcessTransport, LoopbackTransport and
/// TcpTransport), the server end's writes (detail::ServedPeer) and the
/// server's request loop (ServerSession::serve). So the write and
/// poll-read loops live here once, and only those three call them (lint
/// rule R7). Both loops are hardened against the partial-I/O realities the
/// fan-out fabric depends on:
///
///  * fd_write_all loops until every byte is written, retrying EINTR —
///    a short write() on a full socket buffer is progress, not success,
///    and treating it as success would truncate a request line mid-JSON
///    (the peer would see garbage and kill the connection).
///  * fd_read_line polls with a timeout, carries partial lines across
///    calls in the caller's buffer, searches each byte for '\n' once,
///    bounds a line at kMaxLineBytes (a longer one reports closed, as EOF
///    does — the peer is not speaking the protocol), and flushes a
///    trailing unterminated line at EOF (a crashing peer's last gasp is
///    still delivered so the driver can log it, then the transport
///    reports closed).

#include <algorithm>
#include <cerrno>
#include <climits>
#include <csignal>
#include <cstddef>
#include <mutex>
#include <string>

#include <poll.h>
#include <unistd.h>

#include "server/transport.h"

namespace xysig::server::detail {

/// A peer dying between our poll and our write must surface as a failed
/// write, not kill the process with SIGPIPE. Called by both ends that
/// write to a socket (StreamTransport, detail::ServedPeer); idempotent.
inline void ignore_sigpipe_once() {
    static std::once_flag once;
    std::call_once(once, [] { ::signal(SIGPIPE, SIG_IGN); });
}

/// Writes the whole buffer, looping over short writes and EINTR. Returns
/// false on any hard error (EPIPE, ECONNRESET, ...) — the peer is gone.
inline bool fd_write_all(int fd, const char* data, std::size_t size) {
    std::size_t written = 0;
    while (written < size) {
        const ssize_t n = ::write(fd, data + written, size - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        written += static_cast<std::size_t>(n);
    }
    return true;
}

/// Frames `line` with a trailing '\n' and writes it whole.
inline bool fd_write_line(int fd, const std::string& line) {
    std::string framed = line;
    framed.push_back('\n');
    return fd_write_all(fd, framed.data(), framed.size());
}

/// The longest line fd_read_line accepts, newline excluded: far above any
/// line the protocol sends (the largest is a ~100 KB request), and low
/// enough that a peer streaming bytes without a newline cannot grow the
/// carry buffer without bound.
inline constexpr std::size_t kMaxLineBytes = std::size_t{16} << 20;

/// Reads one '\n'-terminated line from `fd` into `out` (newline stripped),
/// carrying partial data across calls in `buffer`. timeout_seconds <= 0
/// waits indefinitely. At EOF a trailing unterminated line is flushed
/// first; after that, on a hard error, or once `buffer` holds more than
/// kMaxLineBytes with no newline, the status is `closed`.
inline Transport::ReadStatus fd_read_line(int fd, std::string& buffer,
                                          std::string& out,
                                          double timeout_seconds) {
    // poll() takes int milliseconds; larger waits are clamped (NaN too).
    constexpr double kMaxPollMs = static_cast<double>(INT_MAX - 1);
    const int timeout_ms =
        timeout_seconds <= 0.0
            ? -1
            : static_cast<int>(std::min(kMaxPollMs, timeout_seconds * 1000.0)) + 1;
    std::size_t searched = 0; ///< leading bytes of `buffer` with no '\n'
    while (true) {
        const std::size_t pos = buffer.find('\n', searched);
        if (pos != std::string::npos) {
            out.assign(buffer, 0, pos);
            buffer.erase(0, pos + 1);
            return Transport::ReadStatus::line;
        }
        searched = buffer.size();
        if (fd < 0 || searched > kMaxLineBytes)
            return Transport::ReadStatus::closed;

        struct pollfd pfd {};
        pfd.fd = fd;
        pfd.events = POLLIN;
        const int polled = ::poll(&pfd, 1, timeout_ms);
        if (polled == 0)
            return Transport::ReadStatus::timeout;
        if (polled < 0) {
            if (errno == EINTR)
                continue;
            return Transport::ReadStatus::closed;
        }

        char chunk[4096];
        const ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return Transport::ReadStatus::closed;
        }
        if (n == 0) { // EOF; flush a trailing unterminated line if any
            if (!buffer.empty()) {
                out = std::move(buffer);
                buffer.clear();
                return Transport::ReadStatus::line;
            }
            return Transport::ReadStatus::closed;
        }
        buffer.append(chunk, static_cast<std::size_t>(n));
    }
}

} // namespace xysig::server::detail

#endif // XYSIG_SERVER_FD_IO_H
