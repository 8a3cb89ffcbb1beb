#ifndef PERFBENCH_JOBS_H
#define PERFBENCH_JOBS_H

/// \file jobs.h
/// Seeded job-line generators, one per workload. The same seed always
/// gives the same lines: closed-loop job k is a pure function of
/// (seed, k), and the open-loop schedule is drawn from the seed alone.
/// Only these lines reach the server.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "stream.h"

namespace perfbench {

/// Members per grid_stream / fanout_tcp job.
inline constexpr std::size_t kGridMembers = 2000;

/// Closed-loop job k of grid_stream and fanout_tcp: a fresh grid with
/// seeded bounds, alternating f0/q, exact mode, signatures on.
[[nodiscard]] JobRecord grid_job(std::uint64_t seed, std::size_t k);

/// Closed-loop job k of spice_universe: the bridging+open Tow-Thomas
/// universe with seeded bridge_resistance/open_factor, wire-default
/// shard size.
[[nodiscard]] JobRecord spice_job(std::uint64_t seed, std::size_t k);

/// One entry of the tenant_mix open-loop schedule: a job, or a
/// `{"cmd":"stats"}` when is_stats.
struct PlannedSend {
    double due = 0.0; ///< seconds after the window start
    bool is_stats = false;
    JobRecord job;
};

/// Poisson arrivals over [0, seconds), exactly 5 in every 5 / rate_per_s
/// seconds: 4 clients,
/// 10% priority 1; 40% fresh exact 8-16-member lists, 20% fresh fast_math
/// lists, 25% exact resubmits of another client's earlier job, 15% member
/// slices of an earlier job; a stats command every second.
/// Resubmit/slice origins are at least 0.5 s older than the job, so at
/// half capacity they have finished and sit in the job cache.
[[nodiscard]] std::vector<PlannedSend> tenant_schedule(std::uint64_t seed,
                                                       double seconds,
                                                       double rate_per_s);

/// Warm-up jobs run during set-up: they fill the golden and stimulus
/// trace caches for every kind and mode the workload uses.
[[nodiscard]] std::vector<JobRecord> warmup_jobs(const std::string& workload);

} // namespace perfbench

#endif // PERFBENCH_JOBS_H
