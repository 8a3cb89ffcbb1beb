#ifndef PERFBENCH_SERVER_PROCESS_H
#define PERFBENCH_SERVER_PROCESS_H

/// \file server_process.h
/// A `sweep_server` child process seen from outside: stdin/stdout pipes,
/// a reader thread that timestamps every stdout line on arrival, and the
/// /proc probes (CPU time, peak RSS) the end-to-end metrics read.

#include <functional>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
[[nodiscard]] double now_s();

/// CPU time the hypervisor has taken from this machine's CPUs (the steal
/// column of /proc/stat), summed over CPUs, in seconds; 0 when unreadable.
[[nodiscard]] double host_steal_seconds();

class ServerProcess {
public:
    /// Called on the reader thread, once per stdout line, with its arrival
    /// time (now_s()).
    using LineHandler = std::function<void(double t, std::string line)>;

    /// Spawns argv (argv[0] = executable path) and starts the reader.
    /// Throws std::runtime_error when the spawn fails.
    ServerProcess(std::vector<std::string> argv, LineHandler on_line);
    /// Closes stdin and reaps the child (SIGKILL after a grace period).
    ~ServerProcess();

    ServerProcess(const ServerProcess&) = delete;
    ServerProcess& operator=(const ServerProcess&) = delete;

    /// Writes one request line (newline appended). False once the child
    /// has closed its stdin.
    bool send(const std::string& line);

    /// utime + stime of the child so far, from /proc/<pid>/stat.
    [[nodiscard]] double cpu_seconds() const;
    /// VmHWM of the child, from /proc/<pid>/status, in MB.
    [[nodiscard]] double peak_rss_mb() const;

    /// Closes stdin (the server drains and exits on EOF) and waits up to
    /// timeout_s for the exit; SIGKILLs a child that is still running.
    /// Returns true when the child exited by itself with status 0.
    bool finish(double timeout_s);
    /// SIGTERM (the --listen accept loop runs until signalled), then reap.
    void terminate(double timeout_s);

private:
    bool reap(double timeout_s);
    void reader_main();

    LineHandler on_line_;
    long pid_ = -1;
    int stdin_fd_ = -1;
    int stdout_fd_ = -1;
    bool reaped_ = false;
    bool clean_exit_ = false;
    std::thread reader_;
};

} // namespace perfbench

#endif // PERFBENCH_SERVER_PROCESS_H
