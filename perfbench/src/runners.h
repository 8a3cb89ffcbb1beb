#ifndef PERFBENCH_RUNNERS_H
#define PERFBENCH_RUNNERS_H

/// \file runners.h
/// One timed window of a workload against real server processes: set-up
/// (spawn -> ready -> warm-up, repeated), the closed or open loop, the
/// /proc probes, and a clean shutdown. Everything the metrics and the
/// checker need comes back in a Window.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "stream.h"

namespace perfbench {

struct RunOptions {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    std::string server; ///< path of example_sweep_server
    std::size_t samples_per_period = 8192;
};

/// One service-side job_done (per partition for fan-out).
struct ServiceDone {
    double seconds = 0.0;
    double queue_seconds = 0.0;
    double shard_max = 0.0;
    double shard_mean = 0.0;
    std::size_t shards = 0;
    std::size_t workers = 0;
    std::size_t netlist_clones = 0;
    bool cached = false;
};

/// Golden / job cache and scheduler counters from one `stats` event.
struct StatsSnapshot {
    double golden_hits = 0.0;
    double golden_misses = 0.0;
    double job_hits = 0.0;
    double job_misses = 0.0;
    double goldens_prefetched = 0.0;
};

struct Window {
    std::unique_ptr<StreamRecorder> recorder;           ///< pipe workloads
    std::deque<std::unique_ptr<JobRecord>> fanout_jobs; ///< fanout_tcp
    std::vector<JobRecord*> timed; ///< jobs sent in the window, in order
    std::vector<const JobRecord*> all; ///< timed plus warm-ups

    std::vector<double> setup_s; ///< spawn -> ready -> warm-up, per repeat
    double cpu_s = 0.0;          ///< server user+sys over the window
    double steal_s = 0.0;        ///< host steal over the window, all CPUs
    double peak_rss_mb = 0.0;
    bool server_exit_ok = true;

    std::vector<double> lateness_s; ///< open loop: send time - due time

    std::vector<ServiceDone> service;
    std::size_t services = 1; ///< SweepService instances running jobs at once
    StatsSnapshot stats_before;
    StatsSnapshot stats_after;

    // fanout_tcp only.
    std::vector<double> connect_ms;
    std::vector<double> partition_max_over_mean;
    std::size_t redispatches = 0;
    std::size_t steals = 0;
    double read_wait_s = 0.0;
    std::size_t transport_lines = 0;
    std::size_t transport_bytes = 0;
};

/// Open-loop arrival rate of tenant_mix (jobs/s): about 30% of the ~50
/// jobs/s its mix saturates at on a 4-core host. At half capacity the
/// queue turned run-to-run host speed drift of a few percent into a ~20%
/// spread in latency.
inline constexpr double kTenantRate = 15.0;

/// Runs one window of opts.workload. Throws on an infrastructure failure
/// (server never ready, warm-up error, lost process).
[[nodiscard]] Window run_window(const RunOptions& opts);

} // namespace perfbench

#endif // PERFBENCH_RUNNERS_H
