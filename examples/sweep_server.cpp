// sweep_server — newline-delimited-JSON front-end over server::SweepService
// through the server::JobScheduler queue.
//
// Reads one JSON request (job or command) per stdin line, streams NDJSON
// events (ready, queued, job_start, result, progress, job_done, verify,
// stats, error) to stdout, and keeps the service — worker pool, pipeline —
// and the process-wide golden-signature and whole-job result caches alive
// across jobs. stdin and stdout may be one socket (ProcessTransport hands
// its child one end of a socketpair as both).
// docs/PROTOCOL.md is the normative spec of the wire format; the protocol
// logic itself — the request loop included — lives in
// src/server/wire.{h,cpp} (ServerSession::serve), the same loop every
// TcpListener connection and LoopbackTransport runs, so this file is only
// plumbing.
//
// Since protocol version 2, the session submits jobs asynchronously — a
// job is acknowledged with a `queued` event and its events are written by
// the scheduler's dispatcher as the job runs, straight from the service's
// in-order result delivery to stdout — so serve() on stdin is a single
// reader thread: cancels take effect on receipt, multiple in-flight jobs
// interleave on one connection, and the process holds no per-job thread or
// result queue. Backpressure comes from the OS pipe: a reader that stops
// draining stdout blocks the running job, and queued jobs wait without
// running. {"cmd":"quit"} drains every in-flight job before the loop
// exits, as does EOF.
//
// With --listen=PORT the same protocol is served over TCP instead of
// stdin/stdout: the process binds the port (0 = ephemeral), announces
// `{"event":"listening","address":...,"port":N}` on stdout, and serves
// every accepted connection with its own session and worker pool, so one
// listening host can serve all partitions of a `sweep_fanout --connect`
// run concurrently. The caches are the process's, so a job one connection
// ran is served from the whole-job cache on any other.
//
// Flags: --workers=N --spp=N (pipeline samples per period)
//        --heartbeat=SECONDS (emit v3 heartbeat events; 0 = off)
//        --listen=PORT (serve TCP connections instead of stdin; 0 picks
//        an ephemeral port, announced on stdout)
//        --bind=ADDR (listen address, default 0.0.0.0)
//        --check (schema-validate stdin lines, exit non-zero on the first
//        invalid one)

#include <iostream>
#include <string>

#include <unistd.h>

#include "server/json.h"
#include "server/tcp_transport.h"
#include "server/wire.h"

namespace {

using namespace xysig;

/// --check: one line in, one verdict out. Exit code 1 on the first
/// schema violation, with the offending line number on stderr.
int run_check_mode() {
    std::string line;
    std::size_t line_number = 0;
    std::size_t checked = 0;
    while (std::getline(std::cin, line)) {
        ++line_number;
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        try {
            server::check_protocol_line(line);
            ++checked;
        } catch (const std::exception& e) {
            std::cerr << "sweep_server --check: line " << line_number << ": "
                      << e.what() << "\n";
            return 1;
        }
    }
    std::cout << "sweep_server --check: " << checked << " lines ok\n";
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    unsigned workers = 0;
    std::size_t samples_per_period = 512;
    server::SessionOptions session_opts;
    bool check = false;
    bool listen = false;
    unsigned short listen_port = 0;
    std::string bind_address = "0.0.0.0";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--workers=", 0) == 0)
            workers = static_cast<unsigned>(std::stoul(arg.substr(10)));
        else if (arg.rfind("--spp=", 0) == 0)
            samples_per_period = std::stoul(arg.substr(6));
        else if (arg.rfind("--heartbeat=", 0) == 0)
            session_opts.heartbeat_seconds = std::stod(arg.substr(12));
        else if (arg.rfind("--listen=", 0) == 0) {
            listen = true;
            listen_port = static_cast<unsigned short>(std::stoul(arg.substr(9)));
        } else if (arg.rfind("--bind=", 0) == 0)
            bind_address = arg.substr(7);
        else if (arg == "--check")
            check = true;
        else {
            std::cerr << "unknown flag: " << arg << "\n";
            return 2;
        }
    }
    if (check)
        return run_check_mode();

    if (listen) {
        server::TcpListener::Options lopts;
        lopts.bind_address = bind_address;
        lopts.port = listen_port;
        lopts.workers = workers;
        lopts.samples_per_period = samples_per_period;
        lopts.session = session_opts;
        try {
            server::TcpListener listener(lopts);
            {
                // The one stdout line of listen mode: tells the launcher
                // (CI script, test harness) which port an ephemeral bind
                // actually got. The NDJSON conversation itself happens on
                // the accepted sockets.
                server::JsonValue::Object o;
                o.emplace("event", "listening");
                o.emplace("address", bind_address);
                o.emplace("port", static_cast<std::size_t>(listener.port()));
                std::cout << server::JsonValue(std::move(o)).dump() << "\n"
                          << std::flush;
            }
            listener.run(); // until the process is signalled
        } catch (const std::exception& e) {
            std::cerr << "sweep_server --listen: " << e.what() << "\n";
            return 1;
        }
        return 0;
    }

    server::SweepService service(server::make_paper_pipeline(samples_per_period),
                                 server::SweepServiceOptions{workers});
    server::ServerSession session(
        service,
        [](const std::string& line) { std::cout << line << "\n" << std::flush; },
        session_opts);
    session.emit_ready(samples_per_period);
    session.serve(STDIN_FILENO);
    session.drain(); // EOF path: flush in-flight jobs before exiting
    return session.all_verified() ? 0 : 1;
}
