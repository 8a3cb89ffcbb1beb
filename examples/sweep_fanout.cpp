// sweep_fanout — multi-process fan-out driver CLI over server::FanoutDriver.
//
// Takes one NDJSON sweep job (same schema sweep_server accepts, see
// docs/PROTOCOL.md), splits it into contiguous member-range partitions,
// runs each partition on its own worker — a `sweep_server` child process
// (--server=PATH) or an in-process loopback peer (default) — and streams
// the merged results to stdout in ascending global member order, followed
// by a fanout_done summary (per-partition timings, re-dispatch counts,
// straggler stats). With --verify the merged stream is additionally gated
// on exact per-member identity with a single-process SweepService run;
// the exit code is non-zero if that gate fails.
//
//   printf '%s\n' '{"job":"deviations","grid":{"from":-20,"to":20,"count":1200}}' |
//     ./build/example_sweep_fanout --processes=4 \
//         --server=./build/example_sweep_server --verify
//
// Flags:
//   --processes=N      partition count (default 2)
//   --server=PATH      spawn PATH per partition (default: in-process loopback)
//   --connect=HOST:PORT connect each partition to a listening
//                      `sweep_server --listen` instead of spawning children
//   --workers=N        worker threads per worker process (0 = its default)
//   --spp=N            samples per period handed to workers (default 512)
//   --timeout=SECONDS  per-partition inactivity timeout before re-dispatch
//   --max-attempts=N   dispatch attempts per dispatched range (default 3)
//   --steal-threshold=N work-stealing: idle partitions take the top half
//                      of the slowest tail once it is >= N members (0 = off)
//   --verify           single-process bit-identity gate
//   --quiet            suppress merged result lines (summary/verify only)
//   --job=JSON         job inline instead of the first stdin line

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "server/fanout.h"
#include "server/json.h"
#include "server/tcp_transport.h"
#include "server/transport.h"
#include "server/wire.h"

namespace {

using namespace xysig;
using server::JsonValue;

void emit(const JsonValue::Object& obj) {
    std::cout << JsonValue(obj).dump() << "\n" << std::flush;
}

} // namespace

int main(int argc, char** argv) {
    unsigned processes = 2;
    std::string server_path;
    std::string connect_endpoint;
    unsigned workers = 0;
    std::size_t spp = 512;
    double timeout = 0.0;
    unsigned max_attempts = 3;
    std::size_t steal_threshold = 0;
    bool verify = false;
    bool quiet = false;
    std::string job_text;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--processes=", 0) == 0)
            processes = static_cast<unsigned>(std::stoul(arg.substr(12)));
        else if (arg.rfind("--server=", 0) == 0)
            server_path = arg.substr(9);
        else if (arg.rfind("--connect=", 0) == 0)
            connect_endpoint = arg.substr(10);
        else if (arg.rfind("--steal-threshold=", 0) == 0)
            steal_threshold = std::stoul(arg.substr(18));
        else if (arg.rfind("--workers=", 0) == 0)
            workers = static_cast<unsigned>(std::stoul(arg.substr(10)));
        else if (arg.rfind("--spp=", 0) == 0)
            spp = std::stoul(arg.substr(6));
        else if (arg.rfind("--timeout=", 0) == 0)
            timeout = std::stod(arg.substr(10));
        else if (arg.rfind("--max-attempts=", 0) == 0)
            max_attempts = static_cast<unsigned>(std::stoul(arg.substr(15)));
        else if (arg == "--verify")
            verify = true;
        else if (arg == "--quiet")
            quiet = true;
        else if (arg.rfind("--job=", 0) == 0)
            job_text = arg.substr(6);
        else {
            std::cerr << "unknown flag: " << arg << "\n";
            return 2;
        }
    }
    if (job_text.empty() && !std::getline(std::cin, job_text)) {
        std::cerr << "sweep_fanout: no job (pass --job=... or one NDJSON job "
                     "line on stdin)\n";
        return 2;
    }

    server::FanoutDriver::TransportFactory factory;
    if (!connect_endpoint.empty()) {
        const std::size_t colon = connect_endpoint.rfind(':');
        if (colon == std::string::npos || colon + 1 >= connect_endpoint.size()) {
            std::cerr << "sweep_fanout: --connect expects HOST:PORT\n";
            return 2;
        }
        const std::string host = connect_endpoint.substr(0, colon);
        const unsigned short port = static_cast<unsigned short>(
            std::stoul(connect_endpoint.substr(colon + 1)));
        factory = [host, port] {
            return std::make_unique<server::TcpTransport>(host, port);
        };
    } else if (!server_path.empty()) {
        std::vector<std::string> worker_argv = {server_path,
                                                "--spp=" + std::to_string(spp)};
        if (workers != 0)
            worker_argv.push_back("--workers=" + std::to_string(workers));
        factory = [worker_argv] {
            return std::make_unique<server::ProcessTransport>(worker_argv);
        };
    } else {
        server::LoopbackTransport::Options lopts;
        lopts.workers = workers == 0 ? 2 : workers;
        lopts.samples_per_period = spp;
        factory = [lopts] {
            return std::make_unique<server::LoopbackTransport>(lopts);
        };
    }

    server::FanoutOptions fopts;
    fopts.partitions = processes;
    fopts.read_timeout_seconds = timeout;
    fopts.max_attempts = max_attempts;
    fopts.steal_threshold = steal_threshold;
    fopts.verify_single_process = verify;

    {
        JsonValue::Object o;
        o.emplace("event", "fanout_start");
        o.emplace("partitions", static_cast<std::size_t>(processes));
        o.emplace("transport", !connect_endpoint.empty() ? "tcp"
                               : server_path.empty()     ? "loopback"
                                                         : "process");
        o.emplace("version", server::kProtocolVersion);
        emit(o);
    }

    try {
        // Inside the try: invalid options (e.g. --processes=0) throw and
        // must become an error event + exit 1 like every other failure.
        server::FanoutDriver driver(std::move(factory), fopts);
        const server::FanoutSummary summary = driver.run(
            job_text, [&](const server::FanoutRecord& r) {
                if (quiet)
                    return;
                JsonValue::Object o;
                o.emplace("event", "result");
                o.emplace("member", r.member);
                o.emplace("ndf", r.ndf);
                o.emplace("ndf_hex", r.ndf_hex);
                o.emplace("label", r.label);
                if (r.signature.has_value())
                    o.emplace("signature", *r.signature);
                emit(o);
            });

        {
            JsonValue::Array parts;
            for (const server::PartitionOutcome& p : summary.partitions) {
                JsonValue::Object o;
                o.emplace("partition", p.partition);
                o.emplace("first_member", p.first_member);
                o.emplace("member_count", p.member_count);
                o.emplace("members_done", p.members_done);
                o.emplace("attempts", static_cast<std::size_t>(p.attempts));
                o.emplace("seconds", p.seconds);
                o.emplace("netlist_clones", p.netlist_clones);
                o.emplace("steals", static_cast<std::size_t>(p.steals));
                o.emplace("cancelled", p.cancelled);
                parts.emplace_back(std::move(o));
            }
            JsonValue::Object o;
            o.emplace("event", "fanout_done");
            o.emplace("members_total", summary.members_total);
            o.emplace("members_done", summary.members_done);
            o.emplace("cancelled", summary.cancelled);
            o.emplace("seconds", summary.seconds);
            o.emplace("netlist_clones", summary.netlist_clones);
            o.emplace("redispatches",
                      static_cast<std::size_t>(summary.redispatches));
            o.emplace("steals", static_cast<std::size_t>(summary.steals));
            o.emplace("heartbeats", summary.heartbeats);
            if (!summary.warnings.empty()) {
                JsonValue::Array warnings;
                for (const std::string& w : summary.warnings)
                    warnings.emplace_back(w);
                o.emplace("warnings", std::move(warnings));
            }
            o.emplace("partition_seconds_min", summary.partition_seconds_min);
            o.emplace("partition_seconds_max", summary.partition_seconds_max);
            o.emplace("partition_seconds_mean", summary.partition_seconds_mean);
            o.emplace("partitions", std::move(parts));
            emit(o);
        }

        if (summary.verify_ran) {
            JsonValue::Object o;
            o.emplace("event", "verify");
            o.emplace("bit_identical", summary.verify_identical);
            o.emplace("members", summary.members_total);
            emit(o);
            return summary.verify_identical ? 0 : 1;
        }
        return 0;
    } catch (const std::exception& e) {
        JsonValue::Object o;
        o.emplace("event", "error");
        o.emplace("message", std::string(e.what()));
        emit(o);
        return 1;
    }
}
