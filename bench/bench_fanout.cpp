// Fan-out scaling report: the multi-process FanoutDriver versus one
// in-process SweepService, at 1/2/4 partitions, on a behavioural
// deviation grid and on the Tow-Thomas SPICE fault universe. Every row is
// gated on exact per-member identity of the merged stream with the
// single-process reference (hexfloat NDF strings — nonzero exit when any
// member diverges, so CI can rely on the exit code).
//
// Workers default to in-process loopback peers (runs anywhere); pass
// --server=PATH to fan out over real `sweep_server` child processes
// (what the CI smoke does). Speedup is bounded by physical cores —
// determinism is not, which is the point of the gate.
//
// --tcp serves the workers from an in-process TcpListener (each partition
// connects over a real localhost socket, heartbeats on); --chaos appends
// a fault-injection matrix at 4 partitions — disconnect, stall, truncate,
// garbage, delay — each row gated on the merged stream staying
// bit-identical to the single-process reference while the driver recovers
// by re-dispatch (or work-stealing, for the delay straggler).
//
// Flags: --smoke (reduced sizes for CI), --json=PATH (machine-readable
// summary; default bench_fanout.json), --server=PATH, --workers=N (per
// worker peer), --tcp, --chaos.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "common/table.h"
#include "server/fanout.h"
#include "server/job_cache.h"
#include "server/tcp_transport.h"
#include "server/transport.h"
#include "server/wire.h"
#include "support/chaos.h"
#include "support/timing.h"

namespace {

using namespace xysig;

struct Row {
    std::string workload;
    unsigned partitions = 0; // 0 = single-process reference row
    double seconds = 0.0;
    double members_per_s = 0.0;
    double speedup = 1.0;
    unsigned redispatches = 0;
    unsigned steals = 0;
    bool bit_identical = true;
};

void write_json(const std::string& path, bool smoke,
                const std::string& transport, std::size_t grid_size,
                std::size_t fault_count, const std::vector<Row>& rows,
                bool all_identical) {
    std::ofstream out(path);
    if (!out) {
        std::cerr << "warning: cannot write " << path << "\n";
        return;
    }
    out << "{\n";
    out << "  \"bench\": \"fanout\",\n";
    out << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n";
    out << "  \"transport\": \"" << transport << "\",\n";
    out << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
        << ",\n";
    out << "  \"grid_members\": " << grid_size << ",\n";
    out << "  \"spice_faults\": " << fault_count << ",\n";
    out << "  \"all_bit_identical\": " << (all_identical ? "true" : "false")
        << ",\n";
    out << "  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row& r = rows[i];
        out << "    {\"workload\": \"" << r.workload
            << "\", \"partitions\": " << r.partitions
            << ", \"seconds\": " << format_double(r.seconds, 6)
            << ", \"members_per_s\": " << format_double(r.members_per_s, 6)
            << ", \"speedup\": " << format_double(r.speedup, 4)
            << ", \"redispatches\": " << r.redispatches
            << ", \"steals\": " << r.steals
            << ", \"bit_identical\": " << (r.bit_identical ? "true" : "false")
            << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
}

} // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    bool tcp = false;
    bool chaos = false;
    std::string json_path = "bench_fanout.json";
    std::string server_path;
    unsigned worker_threads = 2;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke")
            smoke = true;
        else if (arg == "--tcp")
            tcp = true;
        else if (arg == "--chaos")
            chaos = true;
        else if (arg.rfind("--json=", 0) == 0)
            json_path = arg.substr(7);
        else if (arg.rfind("--server=", 0) == 0)
            server_path = arg.substr(9);
        else if (arg.rfind("--workers=", 0) == 0)
            worker_threads = static_cast<unsigned>(std::stoul(arg.substr(10)));
    }

    // >= 1200 members even in smoke mode: the acceptance gate's grid size.
    const std::size_t grid_size = smoke ? 1200 : 4000;
    const std::size_t spp = smoke ? 256 : 512;
    const std::vector<unsigned> partition_counts = {1, 2, 4};
    const std::string transport_name =
        tcp ? "tcp" : (server_path.empty() ? "loopback" : "process");

    // --tcp: one in-process accept loop, each partition a real localhost
    // socket with v3 heartbeats flowing.
    std::unique_ptr<server::TcpListener> listener;
    server::FanoutDriver::TransportFactory factory;
    if (tcp) {
        server::TcpListener::Options topts;
        topts.bind_address = "127.0.0.1";
        topts.workers = worker_threads;
        topts.samples_per_period = spp;
        topts.session.heartbeat_seconds = 0.2;
        listener = std::make_unique<server::TcpListener>(topts);
        listener->start();
        const unsigned short port = listener->port();
        factory = [port] {
            return std::make_unique<server::TcpTransport>("127.0.0.1", port);
        };
    } else if (!server_path.empty()) {
        const std::vector<std::string> worker_argv = {
            server_path, "--spp=" + std::to_string(spp),
            "--workers=" + std::to_string(worker_threads)};
        factory = [worker_argv] {
            return std::make_unique<server::ProcessTransport>(worker_argv);
        };
    } else {
        server::LoopbackTransport::Options lopts;
        lopts.workers = worker_threads;
        lopts.samples_per_period = spp;
        factory = [lopts] {
            return std::make_unique<server::LoopbackTransport>(lopts);
        };
    }

    std::cout << "=== [fanout] multi-process merge vs single-process "
                 "SweepService, "
              << (smoke ? "smoke" : "full") << " mode, " << transport_name
              << " transport ===\n";
    std::cout << "hardware_concurrency: " << std::thread::hardware_concurrency()
              << " (speedup is bounded by physical cores; determinism is "
                 "not)\n";

    const std::vector<std::pair<std::string, std::string>> workloads = {
        {"deviation grid",
         R"({"job":"deviations","grid":{"from":-20,"to":20,"count":)" +
             std::to_string(grid_size) + R"(},"emit_signatures":false})"},
        {"SPICE fault NDF",
         R"({"job":"spice_faults","universe":"bridging+open","settle_periods":2,"emit_signatures":false})"},
    };

    std::vector<Row> rows;
    bool all_identical = true;
    std::size_t fault_count = 0;

    for (const auto& [workload, job_line] : workloads) {
        // Single-process reference: one SweepService over the whole
        // universe, exact hexfloat NDF per member.
        server::WireJob wire =
            server::parse_wire_job(server::JsonValue::parse(job_line));
        if (workload == "SPICE fault NDF")
            fault_count = wire.universe_members;
        server::SweepServiceOptions sopts;
        sopts.workers = worker_threads;
        server::SweepService single(server::make_paper_pipeline(spp), sopts);
        std::vector<std::string> reference;
        reference.reserve(wire.universe_members);
        const double t_single = seconds_of([&] {
            (void)single.run(wire.job, [&](const server::SweepResult& r) {
                reference.push_back(format_double_exact(r.ndf));
            });
        });
        rows.push_back({workload, 0, t_single,
                        static_cast<double>(reference.size()) / t_single, 1.0,
                        0, 0, true});

        for (const unsigned partitions : partition_counts) {
            // In-process peers share the process-wide job cache: without
            // this, every row after the 1-partition one would time cache
            // replays instead of the fan-out.
            server::JobResultCache::instance().clear();
            server::FanoutOptions fopts;
            fopts.partitions = partitions;
            if (tcp)
                fopts.read_timeout_seconds = 10.0; // heartbeats keep it safe
            server::FanoutDriver driver(factory, fopts);
            std::vector<std::string> merged;
            merged.reserve(reference.size());
            unsigned redispatches = 0;
            unsigned steals = 0;
            const double dt = seconds_of([&] {
                merged.clear();
                const auto summary = driver.run(
                    job_line, [&](const server::FanoutRecord& r) {
                        merged.push_back(r.ndf_hex);
                    });
                redispatches = summary.redispatches;
                steals = summary.steals;
            });
            bool identical = merged.size() == reference.size();
            if (identical)
                for (std::size_t i = 0; i < reference.size(); ++i)
                    identical = identical && merged[i] == reference[i];
            all_identical = all_identical && identical;
            rows.push_back({workload, partitions, dt,
                            static_cast<double>(reference.size()) / dt,
                            t_single / dt, redispatches, steals, identical});
        }

        // --chaos: every fault mode against the 4-partition fan-out, first
        // transport poisoned, recovery (re-dispatch or steal) must still
        // produce the exact single-process bits.
        if (chaos) {
            const server::ChaosMode modes[] = {
                server::ChaosMode::disconnect, server::ChaosMode::stall,
                server::ChaosMode::truncate, server::ChaosMode::garbage,
                server::ChaosMode::delay};
            // Fire mid-stream of partition 0's range (4 partitions).
            const std::size_t after =
                std::max<std::size_t>(1, wire.universe_members / 4 / 3);
            for (const server::ChaosMode mode : modes) {
                server::ChaosPlan plan;
                plan.mode = mode;
                plan.after_lines = after;
                plan.stall_seconds = 0.0; // a stall that never recovers
                plan.delay_seconds = 0.02;
                server::FanoutOptions fopts;
                fopts.partitions = 4;
                fopts.read_timeout_seconds = 2.0;
                fopts.max_attempts = 4;
                if (mode == server::ChaosMode::delay)
                    fopts.steal_threshold = 4; // rescue the straggler
                server::FanoutDriver driver(
                    server::chaos_factory(factory, plan), fopts);
                std::vector<std::string> merged;
                merged.reserve(reference.size());
                unsigned redispatches = 0;
                unsigned steals = 0;
                bool failed = false;
                const double dt = seconds_of([&] {
                    try {
                        const auto summary = driver.run(
                            job_line, [&](const server::FanoutRecord& r) {
                                merged.push_back(r.ndf_hex);
                            });
                        redispatches = summary.redispatches;
                        steals = summary.steals;
                    } catch (const std::exception& e) {
                        std::cerr << "chaos "
                                  << server::chaos_mode_name(mode)
                                  << " run failed: " << e.what() << "\n";
                        failed = true;
                    }
                });
                bool identical = !failed && merged.size() == reference.size();
                if (identical)
                    for (std::size_t i = 0; i < reference.size(); ++i)
                        identical = identical && merged[i] == reference[i];
                all_identical = all_identical && identical;
                rows.push_back({workload + std::string(" +chaos:") +
                                    server::chaos_mode_name(mode),
                                4, dt,
                                static_cast<double>(reference.size()) / dt,
                                t_single / dt, redispatches, steals,
                                identical});
            }
        }
    }

    TextTable t({"workload", "partitions", "time (s)", "members/s", "speedup",
                 "redispatch", "steals", "bit-identical"});
    for (const Row& r : rows) {
        t.add_row({r.workload,
                   r.partitions == 0 ? "single" : std::to_string(r.partitions),
                   format_double(r.seconds, 4), format_double(r.members_per_s, 1),
                   format_double(r.speedup, 2), std::to_string(r.redispatches),
                   std::to_string(r.steals),
                   r.partitions == 0 ? "-"
                                     : (r.bit_identical ? "yes" : "NO (BUG)")});
    }
    t.print(std::cout);
    if (!all_identical)
        std::cout << "ERROR: the merged fan-out stream diverged from the "
                     "single-process reference (determinism bug)\n";

    write_json(json_path, smoke, transport_name, grid_size, fault_count, rows,
               all_identical);
    std::cout << "json: " << json_path << "\n";
    return all_identical ? 0 : 1;
}
