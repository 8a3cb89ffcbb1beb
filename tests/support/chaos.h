#ifndef XYSIG_SUPPORT_CHAOS_H
#define XYSIG_SUPPORT_CHAOS_H

/// \file chaos.h
/// Deterministic fault injection for the sweep fabric.
///
/// ChaosTransport decorates any Transport with a seeded fault plan so the
/// fan-out driver's recovery machinery — re-dispatch from the first
/// unreceived member, inactivity timeouts, malformed-line peer death —
/// can be exercised on demand instead of waiting for a real worker to
/// crash. Every fault is deterministic: the same plan over the same
/// event stream fires at the same line with the same bytes, which is what
/// lets the chaos test matrix assert bit-identical merged output.
///
/// Fault modes (all read-side; the coordinator's view of a sick peer):
///  * disconnect — after N delivered lines the connection closes (EOF),
///    as if the worker process died;
///  * stall — after N lines the peer goes silent WITHOUT closing for
///    stall_seconds (0 = forever): the inactivity-timeout path. Lines
///    are not lost, only withheld;
///  * truncate — line N+1 is cut mid-JSON and the connection closes: a
///    peer that died mid-write;
///  * garbage — line N+1 is replaced by seeded binary-ish junk: a
///    corrupted stream (the real line is lost, so recovery must
///    re-dispatch, not just skip);
///  * delay — every line after the Nth is delivered delay_seconds late:
///    a straggling-but-correct peer (work-stealing bait; nothing is
///    lost, merged output must still be bit-identical with zero retries).
///
/// chaos_factory() wraps a FanoutDriver transport factory so only the
/// first `faulty_transports` transports it creates are chaotic — the
/// re-dispatch replacement comes up clean and the job completes.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "server/fanout.h"
#include "server/transport.h"

namespace xysig::server {

enum class ChaosMode {
    none,       ///< pass-through (a plan's default)
    disconnect, ///< close after `after_lines` delivered lines
    stall,      ///< silence (no close) after `after_lines` lines
    truncate,   ///< cut line `after_lines`+1 mid-JSON, then close
    garbage,    ///< replace line `after_lines`+1 with seeded junk
    delay,      ///< deliver every line after the Nth `delay_seconds` late
};

[[nodiscard]] const char* chaos_mode_name(ChaosMode mode) noexcept;

struct ChaosPlan {
    ChaosMode mode = ChaosMode::none;
    /// Lines delivered cleanly before the fault arms. For disconnect /
    /// stall the fault fires INSTEAD of delivering line after_lines+1
    /// (that line is withheld, not consumed); truncate / garbage corrupt
    /// line after_lines+1 itself; delay slows every later line.
    std::size_t after_lines = 0;
    /// stall only: how long the silence lasts (0 = never recovers).
    double stall_seconds = 0.0;
    /// delay only: per-line delivery lag.
    double delay_seconds = 0.0;
    /// Seeds the garbage bytes and the truncate cut point.
    std::uint64_t seed = 0x9e3779b97f4a7c15ull;
};

/// Transport decorator applying one ChaosPlan to the read side. Writes
/// pass through untouched (until a disconnect-style fault closes the
/// peer, after which send_line reports failure like any dead transport).
class ChaosTransport final : public Transport {
public:
    ChaosTransport(std::unique_ptr<Transport> base, ChaosPlan plan);
    ~ChaosTransport() override;

    bool send_line(const std::string& line) override;
    ReadStatus read_line(std::string& out, double timeout_seconds) override;
    void shutdown() override;
    [[nodiscard]] std::string describe() const override;

private:
    ReadStatus fault_read(std::string& out, double timeout_seconds);

    std::unique_ptr<Transport> base_;
    ChaosPlan plan_;
    std::size_t delivered_ = 0; ///< clean lines handed to the caller
    bool fault_spent_ = false;  ///< one-shot faults already fired
    bool closed_ = false;
    double stall_until_ = 0.0; ///< monotonic deadline; <0 = stalled forever
};

/// Wraps a fan-out transport factory so the first `faulty_transports`
/// transports it creates carry `plan` and every later one (the
/// re-dispatch replacements, the other partitions beyond first_n) is
/// clean. The count is per returned factory, so two drivers never share
/// fault budgets.
[[nodiscard]] FanoutDriver::TransportFactory
chaos_factory(FanoutDriver::TransportFactory base, ChaosPlan plan,
              std::size_t faulty_transports = 1);

} // namespace xysig::server

#endif // XYSIG_SUPPORT_CHAOS_H
