#include "support/chaos.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <utility>

namespace xysig::server {

namespace {

[[nodiscard]] double monotonic_seconds() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void sleep_seconds(double seconds) {
    if (seconds > 0.0)
        std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) {
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/// Seeded junk that can never parse: opens an object, opens a number
/// value, then runs letters into it with no closing brace anywhere.
[[nodiscard]] std::string garbage_line(std::uint64_t seed) {
    static constexpr char kCharset[] = "abcdefghjkmnpqrstuvwxyz0123456789#%";
    std::string line = "{\"event\":\"result\",\"member\":";
    std::uint64_t state = seed;
    for (int i = 0; i < 24; ++i)
        line.push_back(
            kCharset[splitmix64(state) % (sizeof(kCharset) - 1)]);
    return line;
}

} // namespace

const char* chaos_mode_name(ChaosMode mode) noexcept {
    switch (mode) {
    case ChaosMode::none:
        return "none";
    case ChaosMode::disconnect:
        return "disconnect";
    case ChaosMode::stall:
        return "stall";
    case ChaosMode::truncate:
        return "truncate";
    case ChaosMode::garbage:
        return "garbage";
    case ChaosMode::delay:
        return "delay";
    }
    return "unknown";
}

ChaosTransport::ChaosTransport(std::unique_ptr<Transport> base, ChaosPlan plan)
    : base_(std::move(base)), plan_(plan) {}

ChaosTransport::~ChaosTransport() = default;

bool ChaosTransport::send_line(const std::string& line) {
    if (closed_)
        return false;
    return base_->send_line(line);
}

Transport::ReadStatus ChaosTransport::read_line(std::string& out,
                                                double timeout_seconds) {
    if (closed_)
        return ReadStatus::closed;
    const bool armed = !fault_spent_ && plan_.mode != ChaosMode::none &&
                       delivered_ >= plan_.after_lines;
    if (armed)
        return fault_read(out, timeout_seconds);
    const ReadStatus status = base_->read_line(out, timeout_seconds);
    if (status == ReadStatus::line)
        ++delivered_;
    return status;
}

Transport::ReadStatus ChaosTransport::fault_read(std::string& out,
                                                 double timeout_seconds) {
    switch (plan_.mode) {
    case ChaosMode::disconnect: {
        // The worker "dies": EOF with everything after line N lost.
        closed_ = true;
        base_->shutdown();
        return ReadStatus::closed;
    }

    case ChaosMode::stall: {
        // Silence without close. Lines are withheld, not consumed, so a
        // finite stall resumes the stream with nothing lost.
        const double now = monotonic_seconds();
        // xylint: exact-compare(0.0 is the stall-not-started sentinel, assigned verbatim)
        if (stall_until_ == 0.0)
            stall_until_ = plan_.stall_seconds > 0.0
                               ? now + plan_.stall_seconds
                               : -1.0;
        if (stall_until_ < 0.0) {
            // Permanent: consume the caller's patience and report timeout
            // (with an infinite caller timeout, pretend in 1 s slices —
            // the driver's inactivity clock is what should fire, and a
            // hard hang would make a misconfigured test undebuggable).
            sleep_seconds(timeout_seconds > 0.0 ? timeout_seconds : 1.0);
            return ReadStatus::timeout;
        }
        const double remaining = stall_until_ - now;
        if (remaining > 0.0 && timeout_seconds > 0.0 &&
            timeout_seconds <= remaining) {
            sleep_seconds(timeout_seconds);
            return ReadStatus::timeout;
        }
        sleep_seconds(remaining);
        fault_spent_ = true; // silence over; stream resumes
        const ReadStatus status = base_->read_line(out, timeout_seconds);
        if (status == ReadStatus::line)
            ++delivered_;
        return status;
    }

    case ChaosMode::truncate: {
        const ReadStatus status = base_->read_line(out, timeout_seconds);
        if (status != ReadStatus::line)
            return status;
        // Cut mid-JSON at a seeded point and drop the connection: a peer
        // that died inside write(). The cut line IS lost — recovery must
        // re-dispatch from the first unreceived member.
        if (out.size() > 1) {
            std::uint64_t state = plan_.seed;
            const std::size_t cut =
                out.size() / 2 + splitmix64(state) % (out.size() / 4 + 1);
            out.erase(std::min(cut, out.size() - 1));
        }
        fault_spent_ = true;
        closed_ = true; // every later read reports closed
        base_->shutdown();
        return ReadStatus::line;
    }

    case ChaosMode::garbage: {
        // Swallow the real line and hand the caller seeded junk instead:
        // a corrupted stream whose payload is unrecoverable.
        const ReadStatus status = base_->read_line(out, timeout_seconds);
        if (status != ReadStatus::line)
            return status;
        out = garbage_line(plan_.seed);
        fault_spent_ = true;
        return ReadStatus::line;
    }

    case ChaosMode::delay: {
        // A straggler, not a failure: every line still arrives, late.
        const ReadStatus status = base_->read_line(out, timeout_seconds);
        if (status != ReadStatus::line)
            return status;
        sleep_seconds(plan_.delay_seconds);
        ++delivered_;
        return status;
    }

    case ChaosMode::none:
        break;
    }
    const ReadStatus status = base_->read_line(out, timeout_seconds);
    if (status == ReadStatus::line)
        ++delivered_;
    return status;
}

void ChaosTransport::shutdown() {
    closed_ = true;
    base_->shutdown();
}

std::string ChaosTransport::describe() const {
    return std::string("chaos[") + chaos_mode_name(plan_.mode) + "@" +
           std::to_string(plan_.after_lines) + ", " + base_->describe() + "]";
}

FanoutDriver::TransportFactory
chaos_factory(FanoutDriver::TransportFactory base, ChaosPlan plan,
              std::size_t faulty_transports) {
    auto created = std::make_shared<std::atomic<std::size_t>>(0);
    return [base = std::move(base), plan, faulty_transports,
            created]() -> std::unique_ptr<Transport> {
        std::unique_ptr<Transport> transport = base();
        const std::size_t index =
            created->fetch_add(1, std::memory_order_relaxed);
        if (index < faulty_transports && plan.mode != ChaosMode::none)
            return std::make_unique<ChaosTransport>(std::move(transport),
                                                    plan);
        return transport;
    };
}

} // namespace xysig::server
