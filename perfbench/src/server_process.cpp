#include "server_process.h"

#include <cerrno>
#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

extern char** environ;

namespace perfbench {

double now_s() {
    static const auto t0 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
}

double host_steal_seconds() {
    std::ifstream in("/proc/stat");
    // "cpu user nice system idle iowait irq softirq steal ..."
    std::string cpu;
    double fields[8] = {};
    in >> cpu;
    for (double& f : fields)
        in >> f;
    if (!in || cpu != "cpu")
        return 0.0;
    return fields[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

ServerProcess::ServerProcess(std::vector<std::string> argv, LineHandler on_line)
    : on_line_(std::move(on_line)) {
    int in[2];
    int out[2];
    if (pipe2(in, O_CLOEXEC) != 0)
        throw std::runtime_error("pipe2 failed");
    if (pipe2(out, O_CLOEXEC) != 0) {
        close(in[0]);
        close(in[1]);
        throw std::runtime_error("pipe2 failed");
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    // dup2 clears close-on-exec on the targets; every other pipe end is
    // O_CLOEXEC, so the child holds exactly its stdin and stdout.
    posix_spawn_file_actions_adddup2(&actions, in[0], STDIN_FILENO);
    posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
    std::vector<char*> args;
    for (std::string& a : argv)
        args.push_back(a.data());
    args.push_back(nullptr);
    pid_t pid = -1;
    const int rc =
        posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(in[0]);
    close(out[1]);
    if (rc != 0) {
        close(in[1]);
        close(out[0]);
        throw std::runtime_error("cannot spawn " + argv[0]);
    }
    pid_ = pid;
    stdin_fd_ = in[1];
    stdout_fd_ = out[0];
    reader_ = std::thread([this] { reader_main(); });
}

ServerProcess::~ServerProcess() {
    if (!reaped_)
        finish(5.0);
    if (reader_.joinable())
        reader_.join();
    if (stdout_fd_ >= 0)
        close(stdout_fd_);
}

void ServerProcess::reader_main() {
    std::string carry;
    char buf[1 << 16];
    while (true) {
        const ssize_t n = read(stdout_fd_, buf, sizeof buf);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        const double t = now_s();
        carry.append(buf, static_cast<std::size_t>(n));
        std::size_t begin = 0;
        for (std::size_t nl = carry.find('\n'); nl != std::string::npos;
             nl = carry.find('\n', begin)) {
            on_line_(t, carry.substr(begin, nl - begin));
            begin = nl + 1;
        }
        carry.erase(0, begin);
    }
}

bool ServerProcess::send(const std::string& line) {
    if (stdin_fd_ < 0)
        return false;
    const std::string framed = line + "\n";
    std::size_t off = 0;
    while (off < framed.size()) {
        const ssize_t n = write(stdin_fd_, framed.data() + off, framed.size() - off);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        off += static_cast<std::size_t>(n);
    }
    return true;
}

double ServerProcess::cpu_seconds() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const std::size_t paren = text.rfind(')');
    if (paren == std::string::npos)
        throw std::runtime_error("cannot read /proc stat of the server");
    // Fields after "(comm)": state is field 3, utime 14, stime 15.
    std::istringstream fields(text.substr(paren + 1));
    std::string tok;
    double utime = 0.0;
    double stime = 0.0;
    for (int field = 3; field <= 15 && (fields >> tok); ++field) {
        if (field == 14)
            utime = std::stod(tok);
        if (field == 15)
            stime = std::stod(tok);
    }
    return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double ServerProcess::peak_rss_mb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB -> MB
    }
    throw std::runtime_error("cannot read VmHWM of the server");
}

bool ServerProcess::reap(double timeout_s) {
    const double deadline = now_s() + timeout_s;
    while (true) {
        int status = 0;
        const pid_t r = waitpid(static_cast<pid_t>(pid_), &status, WNOHANG);
        if (r == static_cast<pid_t>(pid_)) {
            reaped_ = true;
            clean_exit_ = WIFEXITED(status) && WEXITSTATUS(status) == 0;
            return true;
        }
        if (r < 0 && errno != EINTR) {
            reaped_ = true;
            return true;
        }
        if (now_s() > deadline)
            return false;
        usleep(2000);
    }
}

bool ServerProcess::finish(double timeout_s) {
    if (stdin_fd_ >= 0) {
        close(stdin_fd_);
        stdin_fd_ = -1;
    }
    if (!reaped_ && !reap(timeout_s)) {
        kill(static_cast<pid_t>(pid_), SIGKILL);
        reap(5.0);
    }
    if (reader_.joinable())
        reader_.join();
    return clean_exit_;
}

void ServerProcess::terminate(double timeout_s) {
    if (!reaped_) {
        kill(static_cast<pid_t>(pid_), SIGTERM);
        if (!reap(timeout_s)) {
            kill(static_cast<pid_t>(pid_), SIGKILL);
            reap(5.0);
        }
    }
    finish(0.0);
}

} // namespace perfbench
