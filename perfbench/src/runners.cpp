#include "runners.h"

#include <chrono>
#include <stdexcept>
#include <thread>

#include "common/annotated_mutex.h"
#include "jobs.h"
#include "server/fanout.h"
#include "server/json.h"
#include "server/tcp_transport.h"
#include "server_process.h"

namespace perfbench {

using xysig::server::JsonValue;

namespace {

/// Set-ups per run; setup_s reports their median. kSetupsBefore run
/// before the window (the last of them serves it) and kSetupsAfter after
/// it, so that one burst of load on the host does not skew them all.
constexpr int kSetupsBefore = 11;
constexpr int kSetupsAfter = 10;
/// Deadline for any single job, warm-up or timed.
constexpr double kJobTimeout = 120.0;

const std::string kQuit = R"({"cmd":"quit"})";
const std::string kStats = R"({"cmd":"stats"})";

[[nodiscard]] StatsSnapshot parse_stats(const std::string& line) {
    const JsonValue v = JsonValue::parse(line);
    StatsSnapshot s;
    const JsonValue& g = v.at("golden_cache");
    s.golden_hits = g.at("hits").as_number();
    s.golden_misses = g.at("misses").as_number();
    if (v.has("job_cache")) {
        s.job_hits = v.at("job_cache").at("hits").as_number();
        s.job_misses = v.at("job_cache").at("misses").as_number();
    }
    if (v.has("scheduler"))
        s.goldens_prefetched = v.at("scheduler").at("goldens_prefetched").as_number();
    return s;
}

[[nodiscard]] ServiceDone service_done(const JobRecord& j, std::size_t workers) {
    ServiceDone d;
    d.seconds = j.seconds;
    d.queue_seconds = j.queue_seconds;
    d.shard_max = j.shard_max;
    d.shard_mean = j.shard_mean;
    d.shards = j.shards_total;
    d.workers = workers;
    d.netlist_clones = j.netlist_clones;
    d.cached = j.cached;
    return d;
}

void require(bool ok, const std::string& what) {
    if (!ok)
        throw std::runtime_error(what);
}

// ------------------------------------------------------------ pipe workloads

/// Spawns a server, waits for ready and runs the warm-up jobs.
struct PipeServer {
    std::unique_ptr<StreamRecorder> recorder;
    std::unique_ptr<ServerProcess> process; ///< declared after its recorder

    PipeServer(const RunOptions& opts) : recorder(std::make_unique<StreamRecorder>()) {
        process = std::make_unique<ServerProcess>(
            std::vector<std::string>{opts.server, "--workers=4",
                                     "--spp=" + std::to_string(opts.samples_per_period)},
            [r = recorder.get()](double t, std::string line) {
                r->on_line(t, std::move(line));
            });
        require(recorder->wait_ready(60.0), "server sent no ready banner");
        for (JobRecord job : warmup_jobs(opts.workload)) {
            job.sent = now_s();
            require(process->send(recorder->add(std::move(job))->line),
                    "server closed its stdin");
        }
        require(recorder->wait_all_finished(kJobTimeout), "warm-up did not finish");
        for (const auto& job : recorder->jobs())
            require(job->error.empty(), "warm-up failed: " + job->error);
    }
    ~PipeServer() {
        process.reset(); // joins the reader before the recorder goes
    }
};

/// Times `n` set-ups of servers that are quit right after.
void time_pipe_setups(const RunOptions& opts, int n, std::vector<double>& setup_s) {
    for (int rep = 0; rep < n; ++rep) {
        const double t0 = now_s();
        PipeServer s(opts);
        setup_s.push_back(now_s() - t0);
        s.process->send(kQuit);
        require(s.process->finish(30.0), "set-up server did not exit cleanly");
    }
}

Window run_pipe(const RunOptions& opts) {
    Window w;
    time_pipe_setups(opts, kSetupsBefore - 1, w.setup_s);
    const double t0 = now_s();
    auto server = std::make_unique<PipeServer>(opts);
    w.setup_s.push_back(now_s() - t0);
    StreamRecorder& rec = *server->recorder;
    ServerProcess& proc = *server->process;
    const std::size_t workers = rec.ready_workers();
    const std::size_t warmups = rec.jobs().size();

    proc.send(kStats);
    require(rec.wait_stats(1, 30.0), "no stats reply");
    w.stats_before = parse_stats(rec.stats_lines().back());

    const double cpu0 = proc.cpu_seconds();
    const double steal0 = host_steal_seconds();
    if (opts.workload == "tenant_mix") {
        const auto plan = tenant_schedule(opts.seed, opts.seconds, kTenantRate);
        const auto start = std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
        const double start_s = now_s() + 0.020;
        for (const PlannedSend& item : plan) {
            std::this_thread::sleep_until(
                start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(item.due)));
            const double t = now_s();
            w.lateness_s.push_back(t - (start_s + item.due));
            if (item.is_stats) {
                proc.send(kStats);
                continue;
            }
            JobRecord job = item.job;
            job.due = start_s + item.due;
            job.sent = t;
            require(proc.send(rec.add(std::move(job))->line), "server closed its stdin");
        }
        rec.wait_all_finished(kJobTimeout);
    } else {
        const double begin = now_s();
        for (std::size_t k = 0; now_s() - begin < opts.seconds; ++k) {
            JobRecord job = opts.workload == "spice_universe" ? spice_job(opts.seed, k)
                                                              : grid_job(opts.seed, k);
            job.sent = now_s();
            JobRecord* rec_job = rec.add(std::move(job));
            require(proc.send(rec_job->line), "server closed its stdin");
            if (!rec.wait_finished(rec_job, kJobTimeout))
                break; // checked as a failed job
        }
    }
    w.cpu_s = proc.cpu_seconds() - cpu0;
    w.steal_s = host_steal_seconds() - steal0;

    const std::size_t stats_seen = rec.stats_lines().size();
    proc.send(kStats);
    require(rec.wait_stats(stats_seen + 1, 30.0), "no stats reply");
    w.stats_after = parse_stats(rec.stats_lines().back());
    w.peak_rss_mb = proc.peak_rss_mb();
    proc.send(kQuit);
    w.server_exit_ok = proc.finish(60.0);
    time_pipe_setups(opts, kSetupsAfter, w.setup_s);

    auto& jobs = rec.jobs();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        JobRecord& j = *jobs[i];
        parse_record(j);
        w.all.push_back(&j);
        if (i >= warmups) {
            w.timed.push_back(&j);
            if (!j.job_done_line.empty())
                w.service.push_back(service_done(j, workers));
        }
    }
    w.recorder = std::move(server->recorder);
    return w;
}

// ---------------------------------------------------------------- fanout_tcp

/// Counts what crosses one TcpTransport: time blocked in read_line, lines
/// and bytes read, and the partitions' job_done lines (FanoutDriver
/// consumes them, so this is the only place they are visible).
struct TransportTally {
    xysig::Mutex mutex;
    double read_wait_s GUARDED_BY(mutex) = 0.0;
    std::size_t lines GUARDED_BY(mutex) = 0;
    std::size_t bytes GUARDED_BY(mutex) = 0;
    std::vector<std::string> job_done GUARDED_BY(mutex);
};

class CountingTransport final : public xysig::server::Transport {
public:
    CountingTransport(std::unique_ptr<xysig::server::Transport> inner,
                      TransportTally& tally)
        : inner_(std::move(inner)), tally_(tally) {}
    ~CountingTransport() override { flush(); }

    CountingTransport(const CountingTransport&) = delete;
    CountingTransport& operator=(const CountingTransport&) = delete;

    bool send_line(const std::string& line) override { return inner_->send_line(line); }

    ReadStatus read_line(std::string& out, double timeout_seconds) override {
        const double t0 = now_s();
        const ReadStatus status = inner_->read_line(out, timeout_seconds);
        read_wait_s_ += now_s() - t0;
        if (status == ReadStatus::line) {
            ++lines_;
            bytes_ += out.size() + 1;
            if (out.find(R"("event":"job_done")") != std::string::npos)
                job_done_.push_back(out);
        }
        return status;
    }

    void shutdown() override {
        inner_->shutdown();
        flush();
    }

    [[nodiscard]] std::string describe() const override {
        return "counting " + inner_->describe();
    }

private:
    void flush() {
        xysig::MutexLock lock(tally_.mutex);
        tally_.read_wait_s += read_wait_s_;
        tally_.lines += lines_;
        tally_.bytes += bytes_;
        for (std::string& l : job_done_)
            tally_.job_done.push_back(std::move(l));
        read_wait_s_ = 0.0;
        lines_ = 0;
        bytes_ = 0;
        job_done_.clear();
    }

    std::unique_ptr<xysig::server::Transport> inner_;
    TransportTally& tally_;
    double read_wait_s_ = 0.0;
    std::size_t lines_ = 0;
    std::size_t bytes_ = 0;
    std::vector<std::string> job_done_;
};

constexpr unsigned kFanoutWorkers = 2;

[[nodiscard]] xysig::server::FanoutOptions fanout_options() {
    xysig::server::FanoutOptions o;
    o.partitions = 2;
    o.read_timeout_seconds = 30.0; // the listener heartbeats every 0.5 s
    return o;
}

/// Runs one fan-out job into `job`; a thrown run marks it failed.
void run_fanout_job(xysig::server::FanoutDriver& driver, JobRecord& job,
                    std::vector<double>* partition_ratio, Window* w) {
    job.sent = now_s();
    try {
        const auto summary = driver.run(job.line, [&](const xysig::server::FanoutRecord& r) {
            if (job.results.empty())
                job.first_result = now_s();
            ParsedResult p;
            p.member = r.member;
            p.ndf_hex = r.ndf_hex;
            p.label = r.label;
            p.signature = r.signature;
            p.body = r.label + "|" + r.ndf_hex + "|" + r.signature.value_or("");
            job.results.push_back(std::move(p));
        });
        job.members_total = summary.members_total;
        job.members_done = summary.members_done;
        job.cancelled = summary.cancelled;
        if (partition_ratio != nullptr && summary.partition_seconds_mean > 0.0)
            partition_ratio->push_back(summary.partition_seconds_max /
                                       summary.partition_seconds_mean);
        if (w != nullptr) {
            w->redispatches += summary.redispatches;
            w->steals += summary.steals;
        }
    } catch (const std::exception& e) {
        job.error = e.what();
    }
    job.done = now_s();
    job.finished = true;
}

/// Golden-cache counters of the listener process (one stats round-trip
/// on a fresh connection; the golden cache is process-wide).
[[nodiscard]] StatsSnapshot listener_stats(unsigned short port) {
    xysig::server::TcpTransport t("127.0.0.1", port);
    require(t.send_line(kStats), "stats connection closed");
    std::string line;
    while (t.read_line(line, 30.0) == xysig::server::Transport::ReadStatus::line) {
        if (line.find(R"("event":"stats")") != std::string::npos) {
            t.shutdown();
            return parse_stats(line);
        }
    }
    throw std::runtime_error("listener sent no stats");
}

Window run_fanout(const RunOptions& opts) {
    Window w;
    w.services = fanout_options().partitions;
    const std::vector<std::string> argv{
        opts.server,     "--listen=0",
        "--bind=127.0.0.1", "--workers=" + std::to_string(kFanoutWorkers),
        "--spp=" + std::to_string(opts.samples_per_period), "--heartbeat=0.5"};
    TransportTally tally;
    std::vector<double> connect_ms;
    unsigned short port = 0;
    auto factory = [&]() -> std::unique_ptr<xysig::server::Transport> {
        const double t0 = now_s();
        auto tcp = std::make_unique<xysig::server::TcpTransport>("127.0.0.1", port);
        connect_ms.push_back((now_s() - t0) * 1e3);
        return std::make_unique<CountingTransport>(std::move(tcp), tally);
    };
    xysig::server::FanoutDriver driver(factory, fanout_options());

    std::unique_ptr<StreamRecorder> recorder;
    std::unique_ptr<ServerProcess> listener;
    // Spawn -> listening -> warm-up through the driver; the warm-up jobs
    // land in w.fanout_jobs.
    auto set_up = [&] {
        const double t0 = now_s();
        recorder = std::make_unique<StreamRecorder>();
        listener = std::make_unique<ServerProcess>(
            argv, [r = recorder.get()](double t, std::string line) {
                r->on_line(t, std::move(line));
            });
        port = recorder->wait_listening(60.0);
        require(port != 0, "listener announced no port");
        for (JobRecord job : warmup_jobs(opts.workload)) {
            auto rec_job = std::make_unique<JobRecord>(std::move(job));
            run_fanout_job(driver, *rec_job, nullptr, nullptr);
            require(rec_job->error.empty(), "warm-up failed: " + rec_job->error);
            w.fanout_jobs.push_back(std::move(rec_job));
        }
        w.setup_s.push_back(now_s() - t0);
    };
    auto stop = [&] {
        listener->terminate(10.0);
        listener.reset(); // joins the reader before the recorder goes
    };
    for (int rep = 0; rep + 1 < kSetupsBefore; ++rep) {
        set_up();
        stop();
        w.fanout_jobs.clear();
    }
    set_up();
    for (const auto& j : w.fanout_jobs)
        w.all.push_back(j.get());
    w.stats_before = listener_stats(port);
    {
        xysig::MutexLock lock(tally.mutex);
        tally.read_wait_s = 0.0;
        tally.lines = 0;
        tally.bytes = 0;
        tally.job_done.clear();
    }
    connect_ms.clear();

    const double cpu0 = listener->cpu_seconds();
    const double steal0 = host_steal_seconds();
    const double begin = now_s();
    for (std::size_t k = 0; now_s() - begin < opts.seconds; ++k) {
        w.fanout_jobs.push_back(std::make_unique<JobRecord>(grid_job(opts.seed, k)));
        JobRecord& job = *w.fanout_jobs.back();
        run_fanout_job(driver, job, &w.partition_max_over_mean, &w);
        w.timed.push_back(&job);
        w.all.push_back(&job);
        if (!job.error.empty())
            break;
    }
    w.cpu_s = listener->cpu_seconds() - cpu0;
    w.steal_s = host_steal_seconds() - steal0;
    w.stats_after = listener_stats(port);
    w.peak_rss_mb = listener->peak_rss_mb();
    stop();
    w.recorder = std::move(recorder);

    w.connect_ms = connect_ms;
    {
        xysig::MutexLock lock(tally.mutex);
        w.read_wait_s = tally.read_wait_s;
        w.transport_lines = tally.lines;
        w.transport_bytes = tally.bytes;
        for (const std::string& line : tally.job_done) {
            JobRecord partition;
            partition.job_done_line = line;
            parse_record(partition);
            w.service.push_back(service_done(partition, kFanoutWorkers));
        }
    }
    // The remaining set-ups; their warm-up jobs are not kept.
    const std::size_t kept = w.fanout_jobs.size();
    for (int rep = 0; rep < kSetupsAfter; ++rep) {
        set_up();
        stop();
        w.fanout_jobs.resize(kept);
    }
    return w;
}

} // namespace

Window run_window(const RunOptions& opts) {
    if (opts.workload == "fanout_tcp")
        return run_fanout(opts);
    if (opts.workload == "grid_stream" || opts.workload == "spice_universe" ||
        opts.workload == "tenant_mix")
        return run_pipe(opts);
    throw std::invalid_argument("unknown workload '" + opts.workload + "'");
}

} // namespace perfbench
