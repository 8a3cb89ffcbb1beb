#ifndef XYSIG_SERVER_FANOUT_H
#define XYSIG_SERVER_FANOUT_H

/// \file fanout.h
/// Multi-process sweep fan-out: server::FanoutDriver splits one NDJSON
/// sweep job into contiguous member-range partitions, dispatches each
/// partition to its own `sweep_server` peer over a Transport
/// (ProcessTransport = child processes, TcpTransport = `--listen` hosts,
/// LoopbackTransport = in-process socketpair peers for deterministic
/// tests), and merges the per-partition result streams back into one
/// stream in ascending global member order through an OrderedMerge.
///
/// Handshake: each dispatch attempt reads its peer in one loop, and the
/// peer's `ready` banner is its first event (lines before it that are not
/// a `ready` object are skipped). Every banner is checked here, whatever
/// the transport, before any job is sent — its `version` must lie in
/// [1, kProtocolVersion] and its samples_per_period must match the other
/// peers'. A mismatch is deterministic, so it fails the run at once
/// instead of being retried. A peer that sends no banner within 30 s,
/// closes first or sends a line that is not JSON costs one attempt.
///
/// Determinism: members are independent and every member's value is a
/// function of its global id only (parse_wire_job materialises grids over
/// the full universe before slicing), so the merged stream is bit-identical
/// to a single-process SweepService::run over the same universe — at any
/// partition count, and across worker death and re-dispatch. The
/// verify_single_process gate re-runs the whole universe in-process and
/// compares exact hexfloat NDFs (and signature strings) member by member.
///
/// Fault handling: a partition whose peer dies (socket EOF, injected death)
/// or goes silent past read_timeout_seconds is re-dispatched on a fresh
/// transport, resuming at the first member not yet received — the
/// in-partition stream is contiguous, so the received prefix is exact and
/// nothing is delivered twice. A job the peer *rejects* (error event) is
/// deterministic and fails the whole run instead of being retried; a run
/// that exhausts a range's attempts names the last attempt's failure.
/// Cancellation fans out as `{"cmd":"cancel","id":...}` naming each live
/// peer's dispatched partition job (so a peer stops it whether it is
/// running or still queued); everything already evaluated still streams
/// out in ascending order (gaps allowed), exactly like SweepService
/// cancellation. A failed run fans out the same cancel and delivers what
/// it merged, in the same order, before it throws.
///
/// Straggler recovery (FanoutOptions::steal_threshold): a partition
/// thread that finishes early steals the top half of the slowest
/// still-running range onto a fresh transport. The victim's range end
/// shrinks under the driver lock; the victim stops at the first result
/// at-or-past its new end, so every member is delivered exactly once and
/// the merged stream stays bit-identical — stealing changes who computes
/// a member, never what it computes.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "server/json.h"
#include "server/sweep_service.h"
#include "server/transport.h"

namespace xysig::server {

struct FanoutOptions {
    /// Number of contiguous member-range partitions (ignored when
    /// partition_starts is set). Partitions may be empty when there are
    /// more partitions than members.
    unsigned partitions = 2;
    /// Explicit partition start members (ascending, first element 0,
    /// values <= universe size; repeated values make empty partitions).
    /// Empty = even split into `partitions` ranges. Exposed so tests can
    /// pin boundaries (e.g. straddling a NaN member).
    std::vector<std::size_t> partition_starts;
    /// Per-partition inactivity timeout: a peer that emits nothing for
    /// this long is declared dead and its remaining range re-dispatched.
    /// 0 = wait forever.
    double read_timeout_seconds = 0.0;
    /// Dispatch attempts per dispatched range (first dispatch included)
    /// before the whole run fails. A stolen tail is its own range with
    /// its own attempt budget.
    unsigned max_attempts = 3;
    /// Work-stealing straggler recovery: a partition thread that finishes
    /// its own range looks for the slowest still-running range and, when
    /// its unreceived tail has at least this many members, takes the top
    /// half onto a fresh transport (the victim's range shrinks; the
    /// contiguous-prefix invariant keeps the split exact, so the merged
    /// stream is unchanged). 0 = stealing disabled (the default).
    std::size_t steal_threshold = 0;
    /// After the merge, re-run the whole universe through one in-process
    /// SweepService and gate on exact per-member identity with the merged
    /// stream (the fan-out analogue of sweep_server's verify_serial).
    bool verify_single_process = false;
};

/// One merged result record (the wire result event, decoded).
struct FanoutRecord {
    std::size_t member = 0;
    /// Exact bits recovered from ndf_hex (hexfloat round-trip).
    double ndf = 0.0;
    std::string ndf_hex;
    std::string label;
    std::optional<std::string> signature; ///< exact "code@t;..." string
};

/// Per-partition accounting.
struct PartitionOutcome {
    std::size_t partition = 0;
    std::size_t first_member = 0;
    std::size_t member_count = 0;
    std::size_t members_done = 0;
    unsigned attempts = 0; ///< transports consumed (attempts - 1 re-dispatches)
    double seconds = 0.0;  ///< wall-clock incl. re-dispatch
    std::uint64_t netlist_clones = 0; ///< summed over this partition's attempts
    unsigned steals = 0; ///< times an idle thread stole this partition's tail
    bool cancelled = false;
};

struct FanoutSummary {
    std::size_t members_total = 0;
    std::size_t members_done = 0; ///< results delivered to the callback
    bool cancelled = false;
    double seconds = 0.0;
    std::uint64_t netlist_clones = 0;
    unsigned redispatches = 0; ///< worker deaths / timeouts recovered from
    unsigned steals = 0; ///< straggler tails moved to idle threads
    std::size_t heartbeats = 0; ///< v3 liveness events seen across peers
    /// Configuration smells that did not stop the run — e.g.
    /// read_timeout_seconds == 0 (a wedged worker would hang forever).
    std::vector<std::string> warnings;
    std::size_t samples_per_period = 0; ///< from the peers' ready banners
    /// Straggler stats over non-empty partitions' wall-clocks.
    double partition_seconds_min = 0.0;
    double partition_seconds_max = 0.0;
    double partition_seconds_mean = 0.0;
    std::vector<PartitionOutcome> partitions; ///< by partition index
    bool verify_ran = false;
    bool verify_identical = false;
};

/// The coordinator. One instance may run() repeatedly; each run spawns
/// one thread per non-empty partition plus transports from the factory.
class FanoutDriver {
public:
    /// Makes one fresh worker peer; called once per dispatch attempt. The
    /// driver serialises invocations (partition threads never call it
    /// concurrently), so stateful factories — e.g. a test handing out one
    /// faulty transport then healthy ones — need no locking of their own.
    using TransportFactory = std::function<std::unique_ptr<Transport>()>;
    using ResultCallback = std::function<void(const FanoutRecord&)>;

    FanoutDriver(TransportFactory factory, FanoutOptions options = {});

    /// Fans the job (one NDJSON job object — same schema sweep_server
    /// accepts, but without "members": the driver owns partitioning) out
    /// over the partitions and invokes on_result once per member in
    /// ascending global member order (contiguous from 0 unless cancelled
    /// or failed), from the caller's thread. Blocks until done. Throws
    /// Error when a partition exhausts max_attempts, a peer's banner
    /// mismatches or a peer rejects its job — after the remaining
    /// partitions wind down and every member they merged is delivered.
    /// An exception from the callback stops the partitions and is
    /// rethrown once they have wound down. `cancel` works exactly like
    /// SweepService::run's token and may be triggered from the callback.
    FanoutSummary run(const JsonValue& job, const ResultCallback& on_result,
                      SweepCancelToken* cancel = nullptr);
    FanoutSummary run(const std::string& job_line,
                      const ResultCallback& on_result,
                      SweepCancelToken* cancel = nullptr);

private:
    struct Shared;

    /// Serves shared.segments[first_segment], then (steal_threshold > 0)
    /// keeps stealing straggler tails until nothing is worth taking.
    void partition_main(Shared& shared, std::size_t first_segment);
    /// One dispatch/stream/re-dispatch lifecycle for one segment.
    void serve_segment(Shared& shared, std::size_t segment_index);

    TransportFactory factory_;
    FanoutOptions options_;
};

} // namespace xysig::server

#endif // XYSIG_SERVER_FANOUT_H
