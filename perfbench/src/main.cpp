// perfbench_driver — end-to-end sweep-serving benchmark of xysig.
//
// Launches the real example_sweep_server (over pipes, or as a TCP
// --listen host for fan-out), drives it with seeded NDJSON job lines for
// --seconds, checks every job's results bit for bit, and prints each
// metric by name and unit; the last stdout line is one JSON object
// {"correct","attempted","failed","metrics"}. Exit status is 0 only when
// every check passed.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --server PATH [--out-dir DIR] [--inject-corruption]
//
// --trace 0 reports the end-to-end metrics of one window.
// --trace 1 runs the same window, records its client-side wire spans, then
// the in-process layer replay (replay.h), and reports the per-layer
// metrics; the spans go to DIR/<workload>-seed<N>.spans.jsonl. Nothing is
// traced inside the served run, so the window itself is untouched by
// tracing; trace.overhead_frac is the share of the replay spent recording
// its spans.
// --inject-corruption flips one ndf_hex bit and drops one member of the
// first timed job before checking, so the run must fail.

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <limits>
#include <map>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "checker.h"
#include "replay.h"
#include "runners.h"
#include "server/json.h"
#include "server/wire.h"
#include "server_process.h"
#include "spans.h"

namespace {

using namespace perfbench;
using xysig::server::JsonValue;

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Args {
    RunOptions run;
    bool trace = false;
    std::string out_dir = ".";
    bool inject_corruption = false;
};

[[nodiscard]] Args parse_args(int argc, char** argv) {
    Args a;
    bool have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--inject-corruption") {
            a.inject_corruption = true;
            continue;
        }
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload")
            a.run.workload = value;
        else if (flag == "--seed")
            a.run.seed = std::stoull(value);
        else if (flag == "--seconds") {
            a.run.seconds = std::stod(value);
            have_seconds = true;
        } else if (flag == "--trace")
            a.trace = value == "1";
        else if (flag == "--server")
            a.run.server = value;
        else if (flag == "--out-dir")
            a.out_dir = value;
        else
            throw std::invalid_argument("unknown flag " + flag);
    }
    if (a.run.server.empty() || !have_seconds || !(a.run.seconds > 0.0))
        throw std::invalid_argument("--server and a positive --seconds are required");
    return a;
}

/// Linear-interpolated quantile; infinite when the bracketing samples are.
[[nodiscard]] double quantile(std::vector<double> v, double q) {
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    if (std::isinf(v[hi]) || std::isinf(v[lo]))
        return frac > 0.0 || std::isinf(v[lo]) ? kInf : v[lo];
    return v[lo] + (v[hi] - v[lo]) * frac;
}

[[nodiscard]] double ratio(double num, double den) {
    return den > 0.0 ? num / den : 0.0;
}

/// Ordered (name, value, unit) list that becomes the metrics object.
struct Metrics {
    std::vector<std::tuple<std::string, double, std::string>> items;
    void add(const std::string& name, double value, const std::string& unit) {
        items.emplace_back(name, value, unit);
    }
    [[nodiscard]] JsonValue to_json() const {
        JsonValue::Object o;
        for (const auto& [name, value, unit] : items) {
            JsonValue::Object m;
            m.emplace("value", value);
            m.emplace("unit", unit);
            o.emplace(name, std::move(m));
        }
        return JsonValue(std::move(o));
    }
    void print(std::ostream& out) const {
        for (const auto& [name, value, unit] : items) {
            char buf[160];
            std::snprintf(buf, sizeof buf, "  %-42s %14.6g %s\n", name.c_str(), value,
                          unit.c_str());
            out << buf;
        }
    }
};

/// A checked window: per-job verdicts plus the checker's counters.
struct Checked {
    Window window;
    std::map<const JobRecord*, bool> ok;
    CheckResult check;
    std::string self_test;
    bool self_test_ok = false;
    std::vector<std::string> problems; ///< everything that makes the run incorrect
};

[[nodiscard]] Checked run_and_check(const Args& args) {
    Checked c{run_window(args.run), {}, {}, {}, false, {}};
    Window& w = c.window;
    // Recomputed members per fresh job: tenant_mix has hundreds of small
    // jobs, a SPICE member costs ~40 ms.
    const std::size_t samples = args.run.workload == "tenant_mix"       ? 1
                                : args.run.workload == "spice_universe" ? 3
                                                                        : 6;
    Checker checker(args.run.samples_per_period, args.run.seed, samples);

    // The self-test runs on a clean copy of a recorded fresh job before
    // anything else, so a checker that stopped catching corruption shows.
    for (const JobRecord* j : w.timed) {
        if (j->origin_id.empty() && j->error.empty() && j->results.size() >= 3) {
            c.self_test_ok = checker.self_test(*j, c.self_test);
            break;
        }
    }
    if (!c.self_test_ok)
        c.problems.push_back("checker self-test failed: " + c.self_test);
    if (args.inject_corruption && !w.timed.empty() &&
        !checker.corrupt(*w.timed.front(), true, true))
        c.problems.push_back("could not inject corruption");

    std::map<std::string, const JobRecord*> by_id;
    for (const JobRecord* j : w.all)
        by_id.emplace(j->id, j);
    for (const JobRecord* j : w.timed) {
        ++c.check.attempted;
        const bool ok = checker.check_job(*j, by_id, c.problems, c.check);
        c.ok[j] = ok;
        if (!ok)
            ++c.check.failed;
    }
    if (w.recorder) {
        // The job-less lines: ready/listening banners and stats replies.
        std::vector<std::string> lines = w.recorder->untagged_lines();
        const std::vector<std::string> stats = w.recorder->stats_lines();
        lines.insert(lines.end(), stats.begin(), stats.end());
        for (const std::string& line : lines) {
            try {
                xysig::server::check_protocol_line(line);
                ++c.check.lines_validated;
            } catch (const std::exception& e) {
                c.problems.push_back(std::string("protocol check: ") + e.what());
            }
        }
    }
    if (w.timed.empty())
        c.problems.push_back("no job completed in the window");
    if (!w.server_exit_ok)
        c.problems.push_back("server did not exit cleanly on quit");
    if (!w.lateness_s.empty()) {
        // Open loop: a generator that fell behind its schedule measured a
        // lighter load than the one named; such a run is invalid, not slow.
        const double p50 = quantile(w.lateness_s, 0.5);
        const double worst = *std::max_element(w.lateness_s.begin(), w.lateness_s.end());
        if (p50 > 0.005 || worst > 0.250)
            c.problems.push_back("open-loop generator fell behind (late p50 " +
                                 std::to_string(p50 * 1e3) + " ms, max " +
                                 std::to_string(worst * 1e3) + " ms)");
    }
    return c;
}

/// When a job's latency clock starts: its due time in the open loop, its
/// send time otherwise.
[[nodiscard]] double start_time(const JobRecord& j) {
    return std::isnan(j.due) ? j.sent : j.due;
}

[[nodiscard]] std::size_t window_members(const Window& w) {
    std::size_t n = 0;
    for (const JobRecord* j : w.timed)
        n += j->results.size();
    return n;
}

/// First submit (or due time) to last job_done.
[[nodiscard]] double window_seconds(const Window& w) {
    double begin = kInf;
    double end = -kInf;
    for (const JobRecord* j : w.timed) {
        begin = std::min(begin, start_time(*j));
        end = std::max(end, j->done);
    }
    return end - begin;
}

[[nodiscard]] double members_per_s(const Window& w) {
    return ratio(static_cast<double>(window_members(w)), window_seconds(w));
}

/// Median time from send (or due) time to a job's first result line; a
/// failed job counts as infinite.
[[nodiscard]] double first_result_s_p50(const Checked& c) {
    std::vector<double> first;
    for (const JobRecord* j : c.window.timed)
        first.push_back(c.ok.at(j) ? j->first_result - start_time(*j) : kInf);
    return quantile(first, 0.5);
}

/// Quantile `q` of job latency, from send (or due) time to job_done; a
/// failed job counts as infinite.
[[nodiscard]] double job_s_quantile(const Checked& c, double q) {
    std::vector<double> latency;
    for (const JobRecord* j : c.window.timed)
        latency.push_back(c.ok.at(j) ? j->done - start_time(*j) : kInf);
    return quantile(latency, q);
}

[[nodiscard]] Metrics end_to_end(const Checked& c) {
    const Window& w = c.window;
    const std::size_t members = window_members(w);
    Metrics m;
    m.add("members_per_s", members_per_s(w), "members/s");
    m.add("job_s_p50", job_s_quantile(c, 0.5), "s");
    m.add("cpu_ms_per_member", ratio(w.cpu_s * 1e3, static_cast<double>(members)), "ms");
    m.add("peak_rss_mb", w.peak_rss_mb, "MB");
    m.add("setup_s", quantile(w.setup_s, 0.5), "s");
    return m;
}

[[nodiscard]] Metrics per_layer(const Checked& traced, const ReplayCounts& rc,
                                const SpanRecorder& spans, std::size_t wire_spans) {
    const Window& w = traced.window;
    const auto self = spans.self_times();
    auto self_per = [&](const std::string& name, double scale) {
        const auto it = self.find(name);
        return it == self.end() ? 0.0
                                : ratio(it->second.seconds * scale,
                                        static_cast<double>(it->second.count));
    };
    std::vector<double> queue;
    std::vector<double> replay_s;
    std::vector<double> service_s;
    std::vector<double> straggler;
    double busy = 0.0;
    double capacity = 0.0;
    double clones = 0.0;
    for (const ServiceDone& d : w.service) {
        queue.push_back(d.queue_seconds);
        if (d.cached) {
            replay_s.push_back(d.seconds);
            continue;
        }
        service_s.push_back(d.seconds);
        busy += d.shard_mean * static_cast<double>(d.shards);
        capacity += static_cast<double>(d.workers) * d.seconds;
        if (d.shard_mean > 0.0)
            straggler.push_back(d.shard_max / d.shard_mean);
        clones += static_cast<double>(d.netlist_clones);
    }
    const double job_lookups = (w.stats_after.job_hits + w.stats_after.job_misses) -
                               (w.stats_before.job_hits + w.stats_before.job_misses);
    const double golden_lookups =
        (w.stats_after.golden_hits + w.stats_after.golden_misses) -
        (w.stats_before.golden_hits + w.stats_before.golden_misses);
    const double members = static_cast<double>(window_members(w));
    const double spice_members = static_cast<double>(rc.spice_members);
    double nan_members = 0.0;
    double spice_jobs = 0.0;
    for (const JobRecord* j : w.timed) {
        if (j->kind != JobRecord::Kind::spice)
            continue;
        spice_jobs += 1.0;
        for (const ParsedResult& r : j->results)
            nan_members += r.ndf_hex == "nan" ? 1.0 : 0.0;
    }
    std::vector<double> late_ms;
    for (const double l : w.lateness_s)
        late_ms.push_back(l * 1e3);
    // What recording the replay's spans cost: their count times the
    // calibrated cost of one Scope, over the replay's wall time.
    const double scope_s = SpanRecorder::scope_cost_s(9, 20000);
    const double replay_s_total = spans.total_seconds("replay.job");
    const auto replay_spans = static_cast<double>(spans.spans().size() - wire_spans);

    Metrics m;
    m.add("wire.decode_us_per_job", self_per("wire.decode", 1e6), "us");
    m.add("wire.encode_us_per_result", self_per("wire.encode", 1e6), "us");
    m.add("wire.first_result_s_p50", first_result_s_p50(traced), "s");
    m.add("wire.job_s_p90", job_s_quantile(traced, 0.9), "s");
    m.add("wire.bytes_per_result",
          ratio(static_cast<double>(rc.result_bytes), static_cast<double>(rc.results_encoded)),
          "bytes");
    m.add("scheduler.queue_s_p50", quantile(queue, 0.5), "s");
    m.add("scheduler.goldens_prefetched",
          w.stats_after.goldens_prefetched - w.stats_before.goldens_prefetched, "count");
    m.add("job_cache.hit_ratio",
          ratio(w.stats_after.job_hits - w.stats_before.job_hits, job_lookups), "ratio");
    m.add("job_cache.lookups", job_lookups, "count");
    m.add("job_cache.replay_s_p50", quantile(replay_s, 0.5), "s");
    m.add("service.job_s_p50", quantile(service_s, 0.5), "s");
    m.add("service.worker_busy_frac", ratio(busy, capacity), "ratio");
    m.add("service.straggler_ratio", quantile(straggler, 0.5), "ratio");
    m.add("service.utilisation",
          ratio(std::accumulate(service_s.begin(), service_s.end(), 0.0),
                window_seconds(w) * static_cast<double>(w.services)),
          "ratio");
    m.add("service.netlist_clones_per_job",
          ratio(clones, static_cast<double>(service_s.size())), "count");
    m.add("golden.set_ms", self_per("golden.set", 1e3), "ms");
    m.add("golden_cache.hit_ratio",
          ratio(w.stats_after.golden_hits - w.stats_before.golden_hits, golden_lookups),
          "ratio");
    m.add("golden_cache.lookups", golden_lookups, "count");
    m.add("trace_cache.misses_per_job",
          ratio(static_cast<double>(rc.trace_cache_misses), static_cast<double>(rc.jobs)),
          "count");
    m.add("trace_cache.hits_per_job",
          ratio(static_cast<double>(rc.trace_cache_hits), static_cast<double>(rc.jobs)),
          "count");
    const double evaluate_s = spans.total_seconds("pipeline.evaluate");
    m.add("pipeline.evaluate_us_per_member",
          ratio(evaluate_s * 1e6, static_cast<double>(rc.members)), "us");
    m.add("pipeline.unattributed_frac",
          evaluate_s > 0.0 ? 1.0 - spans.child_seconds("pipeline.stages") / evaluate_s : 0.0,
          "ratio");
    m.add("signal.sample_us_per_call", self_per("signal.sample", 1e6), "us");
    m.add("filter.respond_y_us_per_member.exact", self_per("filter.respond_y.exact", 1e6),
          "us");
    m.add("filter.respond_y_us_per_member.fast", self_per("filter.respond_y.fast", 1e6),
          "us");
    m.add("spice.respond_ms_per_member", self_per("spice.respond", 1e3), "ms");
    m.add("spice.dc_op_ms_per_member", self_per("spice.dc_op", 1e3), "ms");
    m.add("spice.dc_newton_iters_per_member",
          ratio(static_cast<double>(rc.dc_newton_iterations), spice_members), "count");
    m.add("spice.dc_ladder_members", static_cast<double>(rc.dc_ladder_members), "count");
    m.add("spice.tran_newton_iters_per_member",
          ratio(static_cast<double>(rc.tran_newton_iterations), spice_members), "count");
    m.add("spice.tran_steps_per_member",
          ratio(static_cast<double>(rc.tran_steps), spice_members), "count");
    m.add("spice.lu_factorisations_per_member",
          ratio(static_cast<double>(rc.dc_newton_iterations + rc.tran_newton_iterations),
                spice_members),
          "count");
    m.add("spice.numeric_error_members", static_cast<double>(rc.numeric_error_members),
          "count");
    m.add("spice.nan_members_per_job", ratio(nan_members, spice_jobs), "count");
    m.add("kernels.zone_us_per_member.exact", self_per("kernels.zone.exact", 1e6), "us");
    m.add("kernels.zone_us_per_member.fast", self_per("kernels.zone.fast", 1e6), "us");
    m.add("capture.encode_us_per_member", self_per("capture.encode", 1e6), "us");
    m.add("capture.zone_visits_per_member",
          ratio(static_cast<double>(rc.zone_visits), static_cast<double>(rc.members)),
          "count");
    m.add("capture.inject_repair_us",
          self_per("capture.inject", 1e6) + self_per("capture.repair", 1e6), "us");
    m.add("ndf.us_per_member", self_per("ndf", 1e6), "us");
    m.add("fanout.connect_ms", quantile(w.connect_ms, 0.5), "ms");
    m.add("fanout.partition_s_max_over_mean", quantile(w.partition_max_over_mean, 0.5),
          "ratio");
    m.add("fanout.redispatches", static_cast<double>(w.redispatches), "count");
    m.add("fanout.steals", static_cast<double>(w.steals), "count");
    m.add("transport.read_wait_s",
          ratio(w.read_wait_s, static_cast<double>(w.timed.size())), "s");
    m.add("transport.lines_per_member",
          ratio(static_cast<double>(w.transport_lines), members), "count");
    m.add("transport.bytes_per_member",
          ratio(static_cast<double>(w.transport_bytes), members), "bytes");
    m.add("generator.late_ms_p50", quantile(late_ms, 0.5), "ms");
    m.add("generator.late_ms_max",
          late_ms.empty() ? 0.0 : *std::max_element(late_ms.begin(), late_ms.end()), "ms");
    m.add("trace.scope_ns", scope_s * 1e9, "ns");
    m.add("trace.overhead_frac", ratio(replay_spans * scope_s, replay_s_total), "ratio");
    m.add("replay.jobs", static_cast<double>(rc.jobs), "count");
    m.add("replay.members", static_cast<double>(rc.members), "count");
    return m;
}

/// Client-side spans of the wire run: submit -> queued -> job_start ->
/// first result -> job_done, one tree per job id.
void add_wire_spans(const Window& w, SpanRecorder& spans) {
    for (const JobRecord* j : w.timed) {
        const double from = start_time(*j);
        const int root = spans.add("wire.job", from, j->done, -1, j->id);
        const double marks[] = {from, j->queued, j->started, j->first_result, j->done};
        const char* names[] = {"wire.submit_to_queued", "wire.queued_to_start",
                               "wire.start_to_first_result", "wire.first_result_to_done"};
        double prev = marks[0];
        for (int i = 0; i < 4; ++i) {
            if (std::isnan(marks[i + 1]))
                continue; // fan-out sees no queued/job_start events
            spans.add(names[i], prev, marks[i + 1], root, j->id);
            prev = marks[i + 1];
        }
    }
}

void print_check(const Checked& c, std::ostream& out) {
    out << "  failed_frac " << ratio(static_cast<double>(c.check.failed),
                                     static_cast<double>(c.check.attempted))
        << " ratio (" << c.check.failed << " failed / " << c.check.attempted
        << " jobs attempted)\n"
        << "  checker: " << c.check.members_recomputed
        << " sampled members recomputed bit for bit, " << c.check.lines_validated
        << " lines protocol-checked; self-test: " << c.self_test << "\n";
    if (!c.window.lateness_s.empty())
        out << "  generator lateness: p50 " << quantile(c.window.lateness_s, 0.5) * 1e3
            << " ms, max "
            << *std::max_element(c.window.lateness_s.begin(), c.window.lateness_s.end()) *
                   1e3
            << " ms over " << c.window.lateness_s.size() << " sends\n";
    out << "  set-ups (s):";
    for (const double s : c.window.setup_s)
        out << " " << s;
    out << "\n  host steal over the window: " << c.window.steal_s << " CPU-s in "
        << window_seconds(c.window) << " s\n";
    out << "  jobs timed: " << c.window.timed.size() << ", members "
        << window_members(c.window) << "\n  first_result_s_p50 " << first_result_s_p50(c)
        << " s, job_s_p90 " << job_s_quantile(c, 0.9)
        << " s (per-layer as wire.*: unbounded, they follow the host's speed)\n";
    for (const std::string& p : c.problems)
        out << "  PROBLEM: " << p << "\n";
}

int run(const Args& args) {
    std::cout << "perfbench " << args.run.workload << " seed=" << args.run.seed
              << " seconds=" << args.run.seconds << " trace=" << (args.trace ? 1 : 0)
              << "\n";
    const Checked checked = run_and_check(args);
    print_check(checked, std::cout);
    std::vector<std::string> problems = checked.problems;
    Metrics metrics;
    if (!args.trace) {
        metrics = end_to_end(checked);
        metrics.print(std::cout);
    } else {
        SpanRecorder spans;
        add_wire_spans(checked.window, spans);
        const std::size_t wire_spans = spans.spans().size();
        std::vector<const JobRecord*> replayed(checked.window.timed.begin(),
                                               checked.window.timed.end());
        const bool tenant = args.run.workload == "tenant_mix";
        const ReplayCounts rc =
            replay_jobs(replayed, args.run.samples_per_period, args.run.seed,
                        tenant ? 1 : 4, tenant ? 60 : 1000, spans);
        for (const std::string& mm : rc.mismatches)
            problems.push_back("replay: " + mm);
        std::filesystem::create_directories(args.out_dir);
        const std::string span_path = args.out_dir + "/" + args.run.workload + "-seed" +
                                      std::to_string(args.run.seed) + ".spans.jsonl";
        spans.write_jsonl(span_path);
        metrics = per_layer(checked, rc, spans, wire_spans);
        std::cout << "  replay: " << rc.jobs << " job lines decoded, " << rc.members
                  << " members replayed layer by layer, " << rc.mismatches.size()
                  << " mismatches; " << spans.spans().size() << " spans in " << span_path
                  << "\n"
                  << "  note: trace_cache.* come from the in-process replay "
                     "(the stats event has no trace_cache object)\n";
        metrics.print(std::cout);
    }
    const bool correct = problems.empty();
    JsonValue::Object result;
    result.emplace("correct", correct);
    result.emplace("attempted", checked.check.attempted);
    result.emplace("failed", checked.check.failed);
    result.emplace("metrics", metrics.to_json());
    std::cout << JsonValue(std::move(result)).dump() << std::endl;
    return correct ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
    std::signal(SIGPIPE, SIG_IGN); // a dead server must fail a send, not the driver
    try {
        return run(parse_args(argc, argv));
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }
}
