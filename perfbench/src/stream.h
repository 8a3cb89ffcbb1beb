#ifndef PERFBENCH_STREAM_H
#define PERFBENCH_STREAM_H

/// \file stream.h
/// What the benchmark records about each job it sends: the job line, the
/// client-side timestamps of its events, and its result stream. The
/// StreamRecorder demultiplexes one server's stdout by job id as lines
/// arrive; parsing waits until after the timed window.

#include <cstddef>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/annotated_mutex.h"

namespace perfbench {

inline constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// One decoded `result` event (or FanoutRecord).
struct ParsedResult {
    std::size_t member = 0;
    std::string ndf_hex;
    /// The `ndf` decimal parsed back to a double agrees bit for bit with
    /// ndf_hex (null for NaN). Always true for fan-out records, which
    /// carry no decimal.
    bool decimal_agrees = true;
    std::string label;
    std::optional<std::string> signature;
    std::string line; ///< raw wire line ("" for fan-out records)
    std::string body; ///< raw line with the id field removed
};

struct JobRecord {
    enum class Kind { warmup, grid, spice, list, resubmit, slice };

    std::string id;
    std::string line; ///< the job line as sent
    Kind kind = Kind::grid;
    std::string origin_id; ///< resubmit/slice: id of the job it replays

    // Client-side timestamps (now_s()); NaN until seen.
    double due = kNaN; ///< open loop: scheduled send time
    double sent = kNaN;
    double queued = kNaN;
    double started = kNaN;
    double first_result = kNaN;
    double done = kNaN;

    std::vector<std::string> result_lines;
    std::vector<std::string> event_lines; ///< this job's non-result lines
    std::string job_done_line;
    std::string error;
    bool finished = false;

    // Filled after the window (parse_records) or by the fan-out runner.
    std::vector<ParsedResult> results;
    std::size_t members_total = 0;
    std::size_t members_done = 0;
    bool cancelled = false;
    bool cached = false;
    double seconds = 0.0;       ///< job_done.seconds
    double queue_seconds = 0.0; ///< job_done.queue_seconds
    std::size_t shards_total = 0;
    std::size_t netlist_clones = 0;
    double shard_min = 0.0;
    double shard_max = 0.0;
    double shard_mean = 0.0;
};

/// Reads one server's stdout. on_line runs on the ServerProcess reader
/// thread; the waits run on the driving thread.
class StreamRecorder {
public:
    void on_line(double t, std::string line);

    /// Registers a job before its line is sent. Returns a stable pointer.
    JobRecord* add(JobRecord record);

    bool wait_ready(double timeout_s);
    bool wait_finished(const JobRecord* job, double timeout_s);
    bool wait_all_finished(double timeout_s);
    /// Waits until at least n `stats` events have arrived.
    bool wait_stats(std::size_t n, double timeout_s);
    /// Waits for the --listen banner and returns its port (0 on timeout).
    unsigned short wait_listening(double timeout_s);

    [[nodiscard]] std::size_t ready_workers();
    [[nodiscard]] std::vector<std::string> stats_lines();
    [[nodiscard]] std::vector<std::string> untagged_lines();
    /// Every registered job, in registration order (call after the
    /// stream has gone quiet).
    [[nodiscard]] std::deque<std::unique_ptr<JobRecord>>& jobs()
        NO_THREAD_SAFETY_ANALYSIS {
        return jobs_;
    }

private:
    xysig::Mutex mutex_;
    xysig::CondVar cv_;
    std::deque<std::unique_ptr<JobRecord>> jobs_ GUARDED_BY(mutex_);
    std::map<std::string, JobRecord*> by_id_ GUARDED_BY(mutex_);
    std::size_t unfinished_ GUARDED_BY(mutex_) = 0;
    std::size_t ready_workers_ GUARDED_BY(mutex_) = 0;
    bool ready_ GUARDED_BY(mutex_) = false;
    unsigned short listening_port_ GUARDED_BY(mutex_) = 0;
    std::vector<std::string> stats_ GUARDED_BY(mutex_);
    std::vector<std::string> untagged_ GUARDED_BY(mutex_);
};

/// Decodes the recorded lines of a finished pipe job into results and
/// job_done fields. Throws on a malformed line.
void parse_record(JobRecord& job);

/// Value of a top-level string field in a protocol line, found by text
/// search ("" when absent). Only for fields whose values the benchmark
/// itself chose (ids, event names): they contain no quotes or escapes.
[[nodiscard]] std::string string_field(const std::string& line,
                                       const std::string& key);

} // namespace perfbench

#endif // PERFBENCH_STREAM_H
