#include "server/wire.h"

#include <algorithm>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdint>
#include <utility>

#include "common/strings.h"
#include "core/batch_ndf.h"
#include "core/golden_cache.h"
#include "core/paper_setup.h"
#include "core/trace_cache.h"
#include "monitor/table1.h"
#include "server/fd_io.h"
#include "server/job_cache.h"
#include "server/scheduler.h"

namespace xysig::server {

std::size_t index_field(const JsonValue& v, const char* what) {
    constexpr double kMaxExactInteger = 9007199254740992.0; // 2^53
    const double n = v.as_number();
    // xylint: exact-compare(x==floor(x) is the exact is-integer test; doubles below 2^53 are exact)
    if (!(n >= 0.0) || n != std::floor(n) || n > kMaxExactInteger)
        throw InvalidInput(std::string("wire: ") + what +
                           " must be a non-negative integer (<= 2^53)");
    return static_cast<std::size_t>(n);
}

namespace {

[[nodiscard]] std::size_t index_or(const JsonValue& obj, const char* key,
                                   std::size_t fallback) {
    return obj.has(key) ? index_field(obj.at(key), key) : fallback;
}

} // namespace

core::SignaturePipeline make_paper_pipeline(std::size_t samples_per_period) {
    core::PipelineOptions opts;
    opts.samples_per_period = samples_per_period;
    return core::SignaturePipeline(monitor::build_table1_bank(),
                                   core::paper_stimulus(), opts);
}

std::string signature_string(const capture::Chronogram& ch) {
    std::string out;
    for (const auto& ev : ch.events()) {
        if (!out.empty())
            out.push_back(';');
        out += std::to_string(ev.code);
        out.push_back('@');
        out += format_double_exact(ev.t);
    }
    return out;
}

// ------------------------------------------------------------ job decoding

WireJob parse_wire_job(const JsonValue& v) {
    WireJob wire;
    if (v.has("version")) {
        const double ver = v.at("version").as_number();
        // xylint: exact-compare(x==floor(x) is the exact is-integer test)
        if (ver != std::floor(ver) || ver < 1)
            throw InvalidInput("wire: version must be a positive integer");
        if (ver > kProtocolVersion)
            throw InvalidInput(
                "wire: unsupported protocol version " +
                std::to_string(static_cast<long long>(ver)) + " (this build speaks " +
                std::to_string(kProtocolVersion) + ")");
        wire.version = static_cast<int>(ver);
    }
    wire.id = v.string_or("id", "");

    const std::string kind = v.at("job").as_string();
    if (kind == "deviations") {
        const std::string param = v.string_or("parameter", "f0");
        if (param != "f0" && param != "q")
            throw InvalidInput("wire: parameter must be 'f0' or 'q'");
        wire.parameter = param == "f0" ? core::SweptParameter::f0
                                       : core::SweptParameter::q;
        if (v.has("deviations")) {
            for (const JsonValue& d : v.at("deviations").as_array())
                wire.deviations.push_back(d.as_number());
        } else {
            const JsonValue& grid = v.at("grid");
            const double from = grid.at("from").as_number();
            const double to = grid.at("to").as_number();
            const std::size_t count = index_field(grid.at("count"), "grid.count");
            if (count < 2)
                throw InvalidInput("wire: grid.count must be >= 2");
            for (std::size_t i = 0; i < count; ++i)
                wire.deviations.push_back(from + (to - from) *
                                                     static_cast<double>(i) /
                                                     static_cast<double>(count - 1));
        }
        // DeviationUniverse scales by 1 + d/100: a deviation at or below
        // -100 % would build a filter with a non-positive f0 or Q.
        const auto bad = std::find_if(
            wire.deviations.begin(), wire.deviations.end(),
            [](double d) { return !(d / 100.0 > -1.0); });
        if (bad != wire.deviations.end())
            throw InvalidInput(std::string("wire: ") +
                               (v.has("deviations") ? "deviations" : "grid") +
                               " holds a deviation of " + format_double(*bad, 6) +
                               " %; every deviation must be > -100 %");
        // Content-addressed universe key over the MATERIALISED full grid:
        // an explicit list and a grid spelling the same values share one
        // key, and exact hexfloats make a hit bit-identical by definition.
        wire.universe_key = "dev|p=" + param + "|v=";
        for (std::size_t i = 0; i < wire.deviations.size(); ++i) {
            if (i > 0)
                wire.universe_key.push_back(',');
            wire.universe_key += format_double_exact(wire.deviations[i]);
        }
    } else if (kind == "spice_faults") {
        auto circuit = core::paper_tow_thomas();
        capture::FaultUniverseOptions fopts;
        fopts.bridge_resistance = v.number_or("bridge_resistance", 100.0);
        if (!(fopts.bridge_resistance > 0.0))
            throw InvalidInput("wire: bridge_resistance must be > 0 (ohms)");
        fopts.open_factor = v.number_or("open_factor", 1e6);
        if (!(fopts.open_factor > 1.0))
            throw InvalidInput("wire: open_factor must be > 1");
        fopts.bridge_to_ground = v.bool_or("bridge_to_ground", false);
        const std::string universe = v.string_or("universe", "bridging+open");
        if (universe.find("bridging") != std::string::npos)
            wire.faults =
                capture::enumerate_bridging_faults(circuit.netlist, fopts);
        if (universe.find("open") != std::string::npos) {
            const auto opens =
                capture::enumerate_open_faults(circuit.netlist, fopts);
            wire.faults.insert(wire.faults.end(), opens.begin(), opens.end());
        }
        if (wire.faults.empty())
            throw InvalidInput(
                "wire: universe must name 'bridging' and/or 'open'");
        const std::size_t settle = index_or(v, "settle_periods", 2);
        if (settle < 1 || settle > static_cast<std::size_t>(INT_MAX))
            throw InvalidInput(
                "wire: settle_periods must be an integer in [1, 2^31 - 1]");
        // The fault universe is a deterministic function of these options
        // over the built-in circuit (bridging always enumerated before
        // open), so normalised flags — not the raw universe string — key
        // the cache: "open+bridging" and "bridging+open" are one job.
        wire.universe_key =
            std::string("spice|b=") +
            (universe.find("bridging") != std::string::npos ? '1' : '0') +
            "|o=" + (universe.find("open") != std::string::npos ? '1' : '0') +
            "|br=" + format_double_exact(fopts.bridge_resistance) +
            "|of=" + format_double_exact(fopts.open_factor) +
            "|gnd=" + (fopts.bridge_to_ground ? '1' : '0') +
            "|settle=" + std::to_string(settle);
        wire.observation = {circuit.input_source, circuit.input_node,
                            circuit.lp_node, static_cast<int>(settle)};
        wire.nominal =
            std::make_shared<spice::Netlist>(std::move(circuit.netlist));
        wire.is_spice = true;
    } else {
        throw InvalidInput("wire: unknown job kind '" + kind + "'");
    }

    // Member-range slicing (the fan-out seam). The full universe above was
    // built from global ids, so slicing here cannot change any member's
    // value — partition bit-identity is by construction.
    wire.universe_members =
        wire.is_spice ? wire.faults.size() : wire.deviations.size();
    std::size_t first = 0;
    std::size_t count = wire.universe_members;
    if (v.has("members")) {
        const JsonValue& m = v.at("members");
        first = index_field(m.at("first"), "members.first");
        if (first > wire.universe_members)
            throw InvalidInput("wire: members.first is past the universe end");
        count = index_or(m, "count", wire.universe_members - first);
        if (first + count > wire.universe_members)
            throw InvalidInput("wire: members range is past the universe end");
    }
    wire.member_offset = first;
    if (wire.is_spice) {
        wire.faults = std::vector<capture::NetlistFault>(
            wire.faults.begin() + static_cast<std::ptrdiff_t>(first),
            wire.faults.begin() + static_cast<std::ptrdiff_t>(first + count));
        wire.job = SweepJob::fault_universe(wire.nominal, wire.faults,
                                            wire.observation);
    } else {
        wire.deviations = std::vector<double>(
            wire.deviations.begin() + static_cast<std::ptrdiff_t>(first),
            wire.deviations.begin() + static_cast<std::ptrdiff_t>(first + count));
        wire.job = SweepJob::deviation_grid(core::paper_biquad(),
                                            wire.deviations, wire.parameter);
    }

    wire.progress_every = index_or(v, "progress_every", 0);
    wire.emit_signatures = v.bool_or("emit_signatures", true);
    wire.verify_serial = v.bool_or("verify_serial", false);
    // Tolerant-reader default: absent means exact mode. Always pinned (not
    // inherit-from-service) so one client's fast_math job can never change
    // the mode a later exact job evaluates under.
    wire.job.fast_math = v.bool_or("fast_math", false);
    if (v.has("priority")) {
        // Signed, unlike index_field: low-priority background jobs are
        // spelled with negative numbers.
        const double p = v.at("priority").as_number();
        // xylint: exact-compare(x==floor(x) is the exact is-integer test)
        if (p != std::floor(p) || std::abs(p) > 1e9)
            throw InvalidInput(
                "wire: priority must be an integer in [-1e9, 1e9]");
        wire.priority = static_cast<int>(p);
    }
    wire.client = v.string_or("client", "");
    return wire;
}

std::vector<double> wire_serial_reference(const WireJob& job,
                                          const core::SignaturePipeline& pipe) {
    // One thread: the executor runs every member on the calling thread.
    const core::BatchNdfEvaluator serial(pipe, {.threads = 1});
    if (job.is_spice)
        return serial.evaluate(core::BatchNdfEvaluator::build_fault_universe(
            *job.nominal, job.faults, job.observation));
    return serial.evaluate_deviations(core::paper_biquad(), job.deviations,
                                      job.parameter);
}

// ------------------------------------------------------- schema validation

namespace {

enum class FieldKind { number, string, boolean, object, number_or_null };

struct FieldSpec {
    const char* key;
    FieldKind kind;
    bool required;
};

void check_fields(const JsonValue& v, const std::string& what,
                  std::initializer_list<FieldSpec> specs) {
    for (const FieldSpec& spec : specs) {
        if (!v.has(spec.key)) {
            if (spec.required)
                throw InvalidInput("wire: " + what + " is missing required field '" +
                                   spec.key + "'");
            continue;
        }
        const JsonValue& field = v.at(spec.key);
        const bool ok = [&] {
            switch (spec.kind) {
            case FieldKind::number: return field.is_number();
            case FieldKind::string: return field.is_string();
            case FieldKind::boolean: return field.is_bool();
            case FieldKind::object: return field.is_object();
            case FieldKind::number_or_null:
                return field.is_number() || field.is_null();
            }
            return false;
        }();
        if (!ok)
            throw InvalidInput("wire: " + what + " field '" + spec.key +
                               "' has the wrong JSON type");
    }
}

void check_event(const JsonValue& v) {
    const std::string event = v.at("event").as_string();
    const FieldSpec id_opt{"id", FieldKind::string, false};
    if (event == "ready") {
        check_fields(v, "ready event",
                     {{"version", FieldKind::number, true},
                      {"workers", FieldKind::number, true},
                      {"samples_per_period", FieldKind::number, true}});
    } else if (event == "job_start") {
        check_fields(v, "job_start event",
                     {id_opt,
                      {"version", FieldKind::number, true},
                      {"members", FieldKind::number, true},
                      {"first_member", FieldKind::number, true},
                      {"universe_members", FieldKind::number, true},
                      {"workers", FieldKind::number, true}});
    } else if (event == "result") {
        check_fields(v, "result event",
                     {id_opt,
                      {"member", FieldKind::number, true},
                      {"ndf", FieldKind::number_or_null, true},
                      {"ndf_hex", FieldKind::string, true},
                      {"label", FieldKind::string, true},
                      {"signature", FieldKind::string, false},
                      {"zone_visits", FieldKind::number, false}});
    } else if (event == "progress") {
        check_fields(v, "progress event",
                     {id_opt,
                      {"done", FieldKind::number, true},
                      {"total", FieldKind::number, true}});
    } else if (event == "queued") {
        check_fields(v, "queued event",
                     {id_opt,
                      {"position", FieldKind::number, true},
                      {"priority", FieldKind::number, true},
                      {"client", FieldKind::string, false},
                      {"cached", FieldKind::boolean, true}});
    } else if (event == "job_done") {
        check_fields(v, "job_done event",
                     {id_opt,
                      {"members_total", FieldKind::number, true},
                      {"members_done", FieldKind::number, true},
                      {"shards_total", FieldKind::number, true},
                      {"shards_done", FieldKind::number, true},
                      {"cancelled", FieldKind::boolean, true},
                      {"seconds", FieldKind::number, true},
                      {"netlist_clones", FieldKind::number, true},
                      {"shard_seconds_min", FieldKind::number, true},
                      {"shard_seconds_max", FieldKind::number, true},
                      {"shard_seconds_mean", FieldKind::number, true},
                      // Version-2 additions (optional: v1 job_done lines
                      // stay valid under the tolerant-reader rule).
                      {"cached", FieldKind::boolean, false},
                      {"queue_seconds", FieldKind::number, false}});
    } else if (event == "verify") {
        if (v.has("skipped_cancelled")) {
            check_fields(v, "verify event",
                         {id_opt, {"skipped_cancelled", FieldKind::boolean, true}});
        } else {
            check_fields(v, "verify event",
                         {id_opt,
                          {"bit_identical", FieldKind::boolean, true},
                          {"members", FieldKind::number, true}});
        }
    } else if (event == "stats") {
        check_fields(v, "stats event",
                     {{"jobs", FieldKind::number, true},
                      {"members", FieldKind::number, true},
                      {"shards", FieldKind::number, true},
                      {"netlist_clones", FieldKind::number, true},
                      {"workers", FieldKind::number, true},
                      {"golden_cache", FieldKind::object, true},
                      // Later additions.
                      {"scheduler", FieldKind::object, false},
                      {"job_cache", FieldKind::object, false},
                      {"trace_cache", FieldKind::object, false}});
    } else if (event == "error") {
        check_fields(v, "error event",
                     {id_opt, {"message", FieldKind::string, true}});
    } else if (event == "heartbeat") {
        // Version-3 liveness beacon.
        check_fields(v, "heartbeat event", {{"seq", FieldKind::number, true}});
    } else if (event == "pong") {
        // Version-3 reply to {"cmd":"ping"}.
        check_fields(v, "pong event", {id_opt});
    } else if (event == "listening") {
        // Version-3 control line announcing a TCP accept loop's bound port
        // (emitted on sweep_server's stdout in --listen mode, not on the
        // per-connection session streams).
        check_fields(v, "listening event",
                     {{"port", FieldKind::number, true},
                      {"address", FieldKind::string, false}});
    } else {
        throw InvalidInput("wire: unknown event '" + event + "'");
    }
}

void check_command(const JsonValue& v) {
    const std::string cmd = v.at("cmd").as_string();
    if (cmd != "stats" && cmd != "quit" && cmd != "cancel" && cmd != "ping")
        throw InvalidInput("wire: unknown cmd '" + cmd + "'");
    check_fields(v, "'" + cmd + "' command", {{"id", FieldKind::string, false}});
}

} // namespace

void check_protocol_line(const std::string& line) {
    // Strict parse: a job line with duplicate keys carries conflicting
    // fields — reject it loudly instead of silently picking one (the
    // tolerant parser's last-wins is fine for EVENTS we merely relay, but
    // --check validates lines someone intends to submit).
    const JsonValue v = JsonValue::parse_strict(line);
    if (!v.is_object())
        throw InvalidInput("wire: a protocol line must be a JSON object");
    if (v.has("event")) {
        check_event(v);
    } else if (v.has("cmd")) {
        check_command(v);
    } else if (v.has("job")) {
        (void)parse_wire_job(v); // full decode, universe enumeration included
    } else {
        throw InvalidInput(
            "wire: line is neither an event, a command, nor a job");
    }
}

// ------------------------------------------------------------ ServerSession

ServerSession::ServerSession(SweepService& service, LineSink sink,
                             SessionOptions options)
    : service_(service), sink_(std::move(sink)) {
    XYSIG_EXPECTS(sink_ != nullptr);
    scheduler_ = std::make_unique<JobScheduler>(service_);
    if (options.heartbeat_seconds > 0.0) {
        // Liveness beacon (protocol v3): one line every interval, whether
        // or not a job is running — between result lines it is the only
        // proof a slow worker is alive, and emit() serialises it against
        // the job streams so it never splices into another line.
        heartbeat_thread_ = std::thread([this,
                                         interval = options.heartbeat_seconds] {
            std::uint64_t seq = 0;
            MutexLock lock(heartbeat_mutex_);
            while (!heartbeat_cv_.wait_for(
                lock, std::chrono::duration<double>(interval),
                [this]() REQUIRES(heartbeat_mutex_) { return heartbeat_stop_; })) {
                // Emit outside the lock: emit() takes sink_mutex_ and a
                // sink may block (full pipe); holding heartbeat_mutex_
                // across it would stall the destructor's stop handshake.
                lock.Unlock();
                JsonValue::Object o;
                o.emplace("event", "heartbeat");
                o.emplace("seq", static_cast<std::size_t>(++seq));
                emit(std::move(o));
                lock.Lock();
            }
        });
    }
}

ServerSession::~ServerSession() {
    // Stop the heartbeat first so no beacon fires into a sink that is
    // being torn down behind it.
    if (heartbeat_thread_.joinable()) {
        {
            MutexLock lock(heartbeat_mutex_);
            heartbeat_stop_ = true;
        }
        heartbeat_cv_.notify_all();
        heartbeat_thread_.join();
    }
    // The scheduler finishes its queued jobs as cancelled and cancels the
    // running one; every job's last event is emitted before it returns.
    scheduler_.reset();
}

void ServerSession::emit(JsonValue::Object obj) {
    const std::string line = JsonValue(std::move(obj)).dump();
    MutexLock lock(sink_mutex_);
    sink_(line);
}

void ServerSession::emit_error(const std::string& id,
                               const std::string& message) {
    JsonValue::Object o;
    o.emplace("event", "error");
    if (!id.empty())
        o.emplace("id", id);
    o.emplace("message", message);
    emit(std::move(o));
}

void ServerSession::emit_ready(std::size_t samples_per_period) {
    JsonValue::Object o;
    o.emplace("event", "ready");
    o.emplace("version", kProtocolVersion);
    o.emplace("workers", static_cast<std::size_t>(service_.worker_count()));
    o.emplace("samples_per_period", samples_per_period);
    emit(std::move(o));
}

void ServerSession::drain() { scheduler_->wait_idle(); }

void ServerSession::serve(int fd) {
    std::string buffer;
    std::string line;
    while (detail::fd_read_line(fd, buffer, line, 0.0) ==
           Transport::ReadStatus::line) {
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue; // blank lines are ignored (PROTOCOL.md framing)
        if (!handle_line(line))
            return; // quit (drained inside handle_line)
    }
}

bool ServerSession::handle_line(const std::string& line) {
    std::string id;
    try {
        // Strict parse: requests with duplicate keys carry conflicting
        // fields and are rejected with an error event.
        const JsonValue v = JsonValue::parse_strict(line);
        id = v.string_or("id", "");
        if (v.has("cmd")) {
            const std::string cmd = v.at("cmd").as_string();
            if (cmd == "quit") {
                drain(); // no event line is lost to an exiting peer
                return false;
            }
            if (cmd == "stats") {
                emit_stats();
                return true;
            }
            if (cmd == "cancel") {
                scheduler_->cancel(id);
                return true;
            }
            if (cmd == "ping") {
                // v3 liveness probe: answered immediately on the reader
                // thread (handle_line never blocks on jobs since v2), so a
                // pong round-trip bounds the peer's request-loop latency.
                JsonValue::Object o;
                o.emplace("event", "pong");
                if (!id.empty())
                    o.emplace("id", id);
                emit(std::move(o));
                return true;
            }
            throw InvalidInput("wire: unknown cmd '" + cmd + "'");
        }
        submit_job(v);
    } catch (const std::exception& e) {
        emit_error(id, e.what());
    }
    return true;
}

/// One job's events as wire lines. The scheduler makes one call at a time,
/// from whichever thread moves the job; emit() serialises the lines against
/// every other job's.
class ServerSession::JobLines final : public JobSink {
public:
    JobLines(ServerSession& session, const WireJob& wire)
        : session_(session), id_(wire.id), client_(wire.client),
          priority_(wire.priority), members_(wire.job.size()),
          first_member_(wire.member_offset),
          universe_members_(wire.universe_members),
          progress_every_(wire.progress_every),
          emit_signatures_(wire.emit_signatures),
          verify_serial_(wire.verify_serial) {}

    void queued(std::size_t position, bool cached) override {
        JsonValue::Object o = event("queued");
        o.emplace("position", position);
        o.emplace("priority", priority_);
        if (!client_.empty())
            o.emplace("client", client_);
        o.emplace("cached", cached);
        session_.emit(std::move(o));
    }

    void started() override {
        started_ = true;
        JsonValue::Object o = event("job_start");
        o.emplace("version", kProtocolVersion);
        o.emplace("members", members_);
        o.emplace("first_member", first_member_);
        o.emplace("universe_members", universe_members_);
        o.emplace("workers",
                  static_cast<std::size_t>(session_.service_.worker_count()));
        session_.emit(std::move(o));
    }

    void result(const SweepResult& r) override {
        ++delivered_;
        JsonValue::Object o = event("result");
        o.emplace("member", first_member_ + r.member_id);
        o.emplace("ndf", r.ndf);
        o.emplace("ndf_hex", format_double_exact(r.ndf));
        o.emplace("label", r.label);
        if (emit_signatures_ && r.signature.has_value()) {
            o.emplace("signature", signature_string(*r.signature));
            o.emplace("zone_visits", r.signature->zone_visits());
        }
        session_.emit(std::move(o));
        if (progress_every_ != 0 && delivered_ % progress_every_ == 0) {
            JsonValue::Object p = event("progress");
            p.emplace("done", delivered_);
            p.emplace("total", members_);
            session_.emit(std::move(p));
        }
    }

    void finished(const JobOutcome& out) override {
        if (out.state == JobState::failed) {
            session_.emit_error(id_, out.error);
            return;
        }
        // A job dequeued by a cancel never started: the service never saw
        // it, and its zeroed summary closes it on the wire (cancelled, no
        // member done) without a job_start.
        const JobSummary& summary = out.summary;
        double shard_min = 0.0, shard_max = 0.0, shard_sum = 0.0;
        for (const auto& st : summary.shard_timings) {
            // xylint: exact-compare(0.0 is the no-shard-seen-yet sentinel, assigned verbatim above)
            shard_min = (shard_min == 0.0 || st.seconds < shard_min)
                            ? st.seconds
                            : shard_min;
            shard_max = std::max(shard_max, st.seconds);
            shard_sum += st.seconds;
        }
        JsonValue::Object o = event("job_done");
        o.emplace("members_total", started_ ? summary.members_total : members_);
        o.emplace("members_done", summary.members_done);
        o.emplace("shards_total", summary.shards_total);
        o.emplace("shards_done", summary.shards_done);
        o.emplace("cancelled", out.state == JobState::cancelled);
        o.emplace("seconds", summary.seconds);
        o.emplace("netlist_clones", summary.netlist_clones);
        o.emplace("shard_seconds_min", shard_min);
        o.emplace("shard_seconds_max", shard_max);
        o.emplace("shard_seconds_mean",
                  summary.shard_timings.empty()
                      ? 0.0
                      : shard_sum / static_cast<double>(
                                        summary.shard_timings.size()));
        o.emplace("cached", out.from_cache);
        o.emplace("queue_seconds", out.queue_seconds);
        session_.emit(std::move(o));

        if (verify_serial_ && out.verify_skipped_cancelled) {
            // A cancelled job has a legitimately incomplete stream; that is
            // not a verification failure, there is just nothing to compare.
            JsonValue::Object v = event("verify");
            v.emplace("skipped_cancelled", true);
            session_.emit(std::move(v));
        } else if (verify_serial_ && out.verify_ran) {
            if (!out.verified)
                session_.all_verified_.store(false, std::memory_order_release);
            JsonValue::Object v = event("verify");
            v.emplace("bit_identical", out.verified);
            v.emplace("members", out.verify_members);
            session_.emit(std::move(v));
        }
    }

private:
    /// A new event object carrying this job's id (when it has one).
    [[nodiscard]] JsonValue::Object event(const char* name) const {
        JsonValue::Object o;
        o.emplace("event", name);
        if (!id_.empty())
            o.emplace("id", id_);
        return o;
    }

    ServerSession& session_;
    const std::string id_;
    const std::string client_;
    const int priority_;
    const std::size_t members_;
    const std::size_t first_member_;
    const std::size_t universe_members_;
    const std::size_t progress_every_;
    const bool emit_signatures_;
    const bool verify_serial_;
    bool started_ = false;
    std::size_t delivered_ = 0;
};

void ServerSession::submit_job(const JsonValue& v) {
    WireJob wire = parse_wire_job(v);
    auto lines = std::make_shared<JobLines>(*this, wire);
    scheduler_->submit(std::move(wire), std::move(lines));
}

namespace {

/// The counters every cache reports in `stats`.
template <class Cache>
[[nodiscard]] JsonValue::Object cache_stats(const Cache& cache) {
    JsonValue::Object o;
    o.emplace("hits", cache.hits());
    o.emplace("misses", cache.misses());
    o.emplace("size", cache.size());
    o.emplace("evictions", cache.evictions());
    o.emplace("capacity", cache.capacity());
    return o;
}

} // namespace

void ServerSession::emit_stats() {
    const auto stats = service_.stats();
    const JobScheduler::Stats sched = scheduler_->stats();
    JsonValue::Object sched_obj;
    sched_obj.emplace("submitted", sched.submitted);
    sched_obj.emplace("completed", sched.completed);
    sched_obj.emplace("failed", sched.failed);
    sched_obj.emplace("cancelled", sched.cancelled);
    sched_obj.emplace("cache_hits", sched.cache_hits);
    sched_obj.emplace("goldens_prefetched", sched.goldens_prefetched);
    sched_obj.emplace("queue_depth", sched.queue_depth);
    JsonValue::Object o;
    o.emplace("event", "stats");
    o.emplace("jobs", stats.jobs);
    o.emplace("members", stats.members);
    o.emplace("shards", stats.shards);
    o.emplace("netlist_clones", stats.netlist_clones);
    o.emplace("workers", static_cast<std::size_t>(service_.worker_count()));
    o.emplace("golden_cache", cache_stats(core::GoldenSignatureCache::instance()));
    o.emplace("scheduler", std::move(sched_obj));
    o.emplace("job_cache", cache_stats(JobResultCache::instance()));
    o.emplace("trace_cache", cache_stats(core::StimulusTraceCache::instance()));
    emit(std::move(o));
}

} // namespace xysig::server
