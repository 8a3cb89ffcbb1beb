// Scheduler scaling report: JobScheduler at (queue depth x worker count)
// combinations over distinct behavioural deviation grids, every job
// collected by its own JobSink (the same sink API ServerSession uses).
// Every combination runs twice: a cold
// pass gated on per-job bit-identity with a serial SweepService::run()
// reference, and a warm resubmit pass that must additionally be served
// entirely by the whole-job result cache (zero worker involvement). Any
// divergence or cache miss on the warm pass makes the exit code nonzero so
// CI can rely on it.
//
// Flags: --smoke (reduced sizes for CI), --json=PATH (machine-readable
// summary; default bench_scheduler.json).

#include <bit>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "common/table.h"
#include "server/job_cache.h"
#include "server/json.h"
#include "server/scheduler.h"
#include "server/sweep_service.h"
#include "server/wire.h"
#include "support/server_helpers.h"
#include "support/timing.h"

namespace {

using namespace xysig;

struct Combo {
    std::size_t depth;
    unsigned workers;
};

struct Row {
    std::string phase; // "cold" | "warm resubmit"
    Combo combo{};
    double seconds = 0.0;
    double members_per_s = 0.0;
    double speedup = 1.0; // serial reference time of the same jobs / wall
    std::uint64_t cache_hits = 0;
    bool ok = true;
};

bool same_stream(const std::vector<server::SweepResult>& a,
                 const std::vector<server::SweepResult>& b) {
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].member_id != b[i].member_id ||
            std::bit_cast<std::uint64_t>(a[i].ndf) !=
                std::bit_cast<std::uint64_t>(b[i].ndf) ||
            a[i].label != b[i].label)
            return false;
    }
    return true;
}

/// One job's stream, collected from whichever scheduler thread moves it;
/// read after JobScheduler::wait_idle().
struct Collect final : server::JobSink {
    std::vector<server::SweepResult> results;
    bool from_cache = false;

    void queued(std::size_t, bool) override {}
    void started() override {}
    void result(const server::SweepResult& r) override { results.push_back(r); }
    void finished(const server::JobOutcome& out) override {
        from_cache = out.from_cache;
    }
};

/// Distinct deviation grid per job index so no two queued jobs share a
/// cache key within a pass; integer endpoints keep the wire line RFC 8259.
server::WireJob grid_job(std::size_t index, std::size_t members) {
    const std::string span = std::to_string(20 + index);
    const std::string line = "{\"id\":\"grid-" + std::to_string(index) +
                             "\",\"job\":\"deviations\",\"grid\":{\"from\":-" +
                             span + ",\"to\":" + span +
                             ",\"count\":" + std::to_string(members) + "}}";
    return server::parse_wire_job(server::JsonValue::parse(line));
}

void write_json(const std::string& path, bool smoke, std::size_t members,
                const std::vector<Row>& rows, bool all_ok) {
    std::ofstream out(path);
    if (!out) {
        std::cerr << "warning: cannot write " << path << "\n";
        return;
    }
    out << "{\n";
    out << "  \"bench\": \"scheduler\",\n";
    out << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n";
    out << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
        << ",\n";
    out << "  \"members_per_job\": " << members << ",\n";
    out << "  \"all_ok\": " << (all_ok ? "true" : "false") << ",\n";
    out << "  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row& r = rows[i];
        out << "    {\"phase\": \"" << r.phase
            << "\", \"queue_depth\": " << r.combo.depth
            << ", \"workers\": " << r.combo.workers
            << ", \"seconds\": " << format_double(r.seconds, 6)
            << ", \"members_per_s\": " << format_double(r.members_per_s, 6)
            << ", \"speedup\": " << format_double(r.speedup, 4)
            << ", \"cache_hits\": " << r.cache_hits
            << ", \"bit_identical\": " << (r.ok ? "true" : "false") << "}"
            << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
}

} // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    std::string json_path = "bench_scheduler.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke")
            smoke = true;
        else if (arg.rfind("--json=", 0) == 0)
            json_path = arg.substr(7);
    }

    const std::size_t members = smoke ? 48 : 240;
    const std::size_t spp = smoke ? 256 : 1024;
    const std::vector<std::size_t> depths = {1, 2, 4, 8};
    const std::vector<unsigned> worker_counts = {1, 2, 4};
    const std::size_t max_depth = depths.back();

    std::cout << "=== [scheduler] queue depth x workers vs serial run(), "
              << (smoke ? "smoke" : "full") << " mode ===\n";
    std::cout << "hardware_concurrency: " << std::thread::hardware_concurrency()
              << " (speedup is bounded by physical cores; determinism is "
                 "not)\n";

    // Serial references, one per distinct grid, through a plain
    // single-worker service — the stream every scheduled variant must
    // reproduce bit for bit.
    server::SweepService ref_service(server::make_pipeline({.samples_per_period = spp}),
                                     {.workers = 1});
    std::vector<server::WireJob> jobs;
    std::vector<std::vector<server::SweepResult>> refs;
    std::vector<double> serial_seconds;
    for (std::size_t j = 0; j < max_depth; ++j) {
        jobs.push_back(grid_job(j, members));
        std::vector<server::SweepResult> ref;
        ref.reserve(members);
        const double dt = seconds_of([&] {
            (void)ref_service.run(
                jobs[j].job, [&](const server::SweepResult& r) { ref.push_back(r); });
        });
        refs.push_back(std::move(ref));
        serial_seconds.push_back(dt);
    }

    std::vector<Row> rows;
    bool all_ok = true;
    for (const unsigned workers : worker_counts) {
        for (const std::size_t depth : depths) {
            server::SweepService service(
                server::make_pipeline({.samples_per_period = spp}), {.workers = workers});
            server::JobScheduler sched(service);
            // The whole-job cache is process-wide: without this, a cell's
            // cold pass would hit the entries of the cells before it.
            server::JobResultCache::instance().clear();
            double serial_total = 0.0;
            for (std::size_t d = 0; d < depth; ++d)
                serial_total += serial_seconds[d];

            for (int pass = 0; pass < 2; ++pass) {
                std::vector<std::shared_ptr<Collect>> sinks;
                const double dt = seconds_of([&] {
                    for (std::size_t d = 0; d < depth; ++d) {
                        sinks.push_back(std::make_shared<Collect>());
                        sched.submit(jobs[d], sinks.back());
                    }
                    sched.wait_idle();
                });

                std::uint64_t cached = 0;
                bool ok = true;
                for (std::size_t d = 0; d < depth; ++d) {
                    ok = ok && same_stream(sinks[d]->results, refs[d]);
                    if (sinks[d]->from_cache)
                        ++cached;
                }
                // The cold pass runs distinct grids (no hits possible); the
                // warm pass must come entirely out of the whole-job cache.
                ok = ok && (pass == 0 ? cached == 0 : cached == depth);
                all_ok = all_ok && ok;
                const double total =
                    static_cast<double>(depth) * static_cast<double>(members);
                rows.push_back({pass == 0 ? "cold" : "warm resubmit",
                                {depth, workers}, dt, total / dt,
                                serial_total / dt, cached, ok});
            }
        }
    }

    TextTable t({"phase", "queue depth", "workers", "time (s)", "members/s",
                 "speedup", "cache hits", "ok"});
    for (const Row& r : rows) {
        t.add_row({r.phase, std::to_string(r.combo.depth),
                   std::to_string(r.combo.workers), format_double(r.seconds, 4),
                   format_double(r.members_per_s, 1),
                   format_double(r.speedup, 2), std::to_string(r.cache_hits),
                   r.ok ? "yes" : "NO (BUG)"});
    }
    t.print(std::cout);
    if (!all_ok)
        std::cout << "ERROR: a scheduled stream diverged from the serial "
                     "reference or a warm resubmit missed the job cache\n";

    write_json(json_path, smoke, members, rows, all_ok);
    std::cout << "json: " << json_path << "\n";
    return all_ok ? 0 : 1;
}
