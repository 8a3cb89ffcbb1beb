#include "stream.h"

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "common/strings.h"
#include "server/json.h"
#include "server/wire.h"

namespace perfbench {

using xysig::MutexLock;
using xysig::server::JsonValue;

std::string string_field(const std::string& line, const std::string& key) {
    const std::string needle = "\"" + key + "\":\"";
    const std::size_t at = line.find(needle);
    if (at == std::string::npos)
        return {};
    const std::size_t begin = at + needle.size();
    const std::size_t end = line.find('"', begin);
    return end == std::string::npos ? std::string() : line.substr(begin, end - begin);
}

void StreamRecorder::on_line(double t, std::string line) {
    const std::string event = string_field(line, "event");
    const std::string id = string_field(line, "id");
    MutexLock lock(mutex_);
    if (event == "ready") {
        ready_ = true;
        const JsonValue v = JsonValue::parse(line);
        ready_workers_ = static_cast<std::size_t>(v.at("workers").as_number());
        untagged_.push_back(std::move(line));
    } else if (event == "listening") {
        const JsonValue v = JsonValue::parse(line);
        listening_port_ = static_cast<unsigned short>(v.at("port").as_number());
        untagged_.push_back(std::move(line));
    } else if (event == "stats") {
        stats_.push_back(std::move(line));
    } else {
        const auto it = id.empty() ? by_id_.end() : by_id_.find(id);
        if (it == by_id_.end()) {
            untagged_.push_back(std::move(line));
        } else {
            JobRecord& job = *it->second;
            if (event == "result") {
                if (job.result_lines.empty())
                    job.first_result = t;
                job.result_lines.push_back(std::move(line));
            } else {
                if (event == "queued") {
                    job.queued = t;
                } else if (event == "job_start") {
                    job.started = t;
                } else if (event == "job_done" || event == "error") {
                    if (event == "job_done")
                        job.job_done_line = line;
                    else
                        job.error = string_field(line, "message");
                    job.done = t;
                    if (!job.finished) {
                        job.finished = true;
                        --unfinished_;
                    }
                }
                job.event_lines.push_back(std::move(line));
            }
        }
    }
    cv_.notify_all();
}

JobRecord* StreamRecorder::add(JobRecord record) {
    MutexLock lock(mutex_);
    jobs_.push_back(std::make_unique<JobRecord>(std::move(record)));
    JobRecord* job = jobs_.back().get();
    if (!by_id_.emplace(job->id, job).second)
        throw std::logic_error("duplicate job id " + job->id);
    ++unfinished_;
    return job;
}

namespace {

[[nodiscard]] std::chrono::duration<double> secs(double s) {
    return std::chrono::duration<double>(s);
}

} // namespace

bool StreamRecorder::wait_ready(double timeout_s) {
    MutexLock lock(mutex_);
    return cv_.wait_for(lock, secs(timeout_s),
                        [&]() REQUIRES(mutex_) { return ready_; });
}

bool StreamRecorder::wait_finished(const JobRecord* job, double timeout_s) {
    MutexLock lock(mutex_);
    return cv_.wait_for(lock, secs(timeout_s),
                        [&]() REQUIRES(mutex_) { return job->finished; });
}

bool StreamRecorder::wait_all_finished(double timeout_s) {
    MutexLock lock(mutex_);
    return cv_.wait_for(lock, secs(timeout_s),
                        [&]() REQUIRES(mutex_) { return unfinished_ == 0; });
}

bool StreamRecorder::wait_stats(std::size_t n, double timeout_s) {
    MutexLock lock(mutex_);
    return cv_.wait_for(lock, secs(timeout_s),
                        [&]() REQUIRES(mutex_) { return stats_.size() >= n; });
}

unsigned short StreamRecorder::wait_listening(double timeout_s) {
    MutexLock lock(mutex_);
    cv_.wait_for(lock, secs(timeout_s),
                 [&]() REQUIRES(mutex_) { return listening_port_ != 0; });
    return listening_port_;
}

std::size_t StreamRecorder::ready_workers() {
    MutexLock lock(mutex_);
    return ready_workers_;
}

std::vector<std::string> StreamRecorder::stats_lines() {
    MutexLock lock(mutex_);
    return stats_;
}

std::vector<std::string> StreamRecorder::untagged_lines() {
    MutexLock lock(mutex_);
    return untagged_;
}

void parse_record(JobRecord& job) {
    job.results.clear();
    job.results.reserve(job.result_lines.size());
    for (const std::string& line : job.result_lines) {
        const JsonValue v = JsonValue::parse(line);
        ParsedResult r;
        r.member = xysig::server::index_field(v.at("member"), "member");
        r.ndf_hex = v.at("ndf_hex").as_string();
        const double from_hex = std::strtod(r.ndf_hex.c_str(), nullptr);
        const JsonValue& ndf = v.at("ndf");
        if (ndf.is_null()) {
            r.decimal_agrees = std::isnan(from_hex);
        } else {
            const double d = ndf.as_number();
            r.decimal_agrees = std::memcmp(&d, &from_hex, sizeof d) == 0;
        }
        r.label = v.at("label").as_string();
        if (v.has("signature"))
            r.signature = v.at("signature").as_string();
        JsonValue::Object body = v.as_object();
        body.erase("id");
        r.body = JsonValue(std::move(body)).dump();
        r.line = line;
        job.results.push_back(std::move(r));
    }
    if (job.job_done_line.empty())
        return;
    const JsonValue d = JsonValue::parse(job.job_done_line);
    job.members_total = static_cast<std::size_t>(d.at("members_total").as_number());
    job.members_done = static_cast<std::size_t>(d.at("members_done").as_number());
    job.cancelled = d.at("cancelled").as_bool();
    job.cached = d.bool_or("cached", false);
    job.seconds = d.at("seconds").as_number();
    job.queue_seconds = d.number_or("queue_seconds", 0.0);
    job.shards_total = static_cast<std::size_t>(d.at("shards_total").as_number());
    job.netlist_clones = static_cast<std::size_t>(d.at("netlist_clones").as_number());
    job.shard_min = d.at("shard_seconds_min").as_number();
    job.shard_max = d.at("shard_seconds_max").as_number();
    job.shard_mean = d.at("shard_seconds_mean").as_number();
}

} // namespace perfbench
