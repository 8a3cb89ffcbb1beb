#ifndef XYSIG_CORE_UNIVERSE_H
#define XYSIG_CORE_UNIVERSE_H

/// \file universe.h
/// Member universes and the one executor that evaluates them.
///
/// A Universe is an indexed set of CUTs screened against one golden: an
/// explicit CUT list, a behavioural deviation grid, or a SPICE fault
/// universe. Each implementation is the single home of its member
/// construction, its labels and — for faults — the one-clone-per-worker
/// inject/repair scheme; Universe::evaluate is the single place a member's
/// NumericError becomes a quiet-NaN NDF.
///
/// run_universe is the only way members are evaluated: SweepService runs
/// it on the ThreadPool it owns, BatchNdfEvaluator on the shared pool, and
/// the wire's serial reference on the calling thread. Results reach the
/// caller's thread in ascending member order, and a member's bits depend
/// on its index only, so every schedule yields the same stream.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "capture/fault_injection.h"
#include "core/pipeline.h"
#include "core/sweep.h"

namespace xysig {
class ThreadPool;
}

namespace xysig::core {

/// How a SPICE netlist CUT is driven and observed (the SpiceCut parameters
/// shared by every member of a fault universe).
struct SpiceObservation {
    std::string input_source = "Vin"; ///< VoltageSource receiving the stimulus
    std::string x_node = "in";        ///< observed x(t) node
    std::string y_node = "lp";        ///< observed y(t) node
    int settle_periods = 8;           ///< periods discarded before capture
};

/// One evaluated member.
struct MemberResult {
    std::size_t member_id = 0;
    /// NDF against the golden; quiet NaN when the member's simulation had no
    /// stable solution.
    double ndf = 0.0;
    /// Stable member label ("dev(f0,-10%)", "bridge(bp,lp,100)", ...).
    std::string label;
    /// The observed chronogram the NDF was computed against (the member's
    /// digital signature); absent for NaN members.
    std::optional<capture::Chronogram> signature;
};

/// One executor worker's private state for one run: scratch buffers and,
/// for fault universes, THE one netlist clone this worker reuses across
/// every fault it is handed (inject/repair between members).
struct UniverseWorker {
    NdfScratch scratch;
    std::optional<spice::Netlist> netlist;
    std::optional<filter::SpiceCut> cut; ///< bound to *netlist
    std::uint64_t netlist_clones = 0;
};

/// An indexed set of CUTs screened against one golden (see the file
/// comment).
class Universe {
public:
    Universe() = default;
    Universe(const Universe&) = delete;
    Universe& operator=(const Universe&) = delete;
    Universe(Universe&&) = delete;
    Universe& operator=(Universe&&) = delete;
    virtual ~Universe() = default;

    [[nodiscard]] virtual std::size_t size() const noexcept = 0;
    [[nodiscard]] virtual std::string label(std::size_t i) const = 0;

    /// Installs this universe's golden on the pipeline (through
    /// SignaturePipeline::set_golden, i.e. the golden cache). Called when a
    /// job runs, never when it is decoded, so a SPICE golden's netlist clone
    /// is only paid by jobs that actually evaluate.
    virtual void set_golden(SignaturePipeline& pipeline) const = 0;

    /// Member i against the pipeline's golden. A member with no stable
    /// solution (NumericError) must not abort its universe — an open
    /// feedback resistor under ideal opamps has no DC operating point — so
    /// it comes back as a quiet-NaN NDF with no signature; every other
    /// error propagates.
    [[nodiscard]] MemberResult evaluate(std::size_t i,
                                        const SignaturePipeline& pipeline,
                                        UniverseWorker& worker) const;

protected:
    [[nodiscard]] virtual SignaturePipeline::CutEvaluation evaluate_member(
        std::size_t i, const SignaturePipeline& pipeline,
        UniverseWorker& worker) const = 0;
};

/// Explicit CUT list. The cuts must satisfy the Cut thread-safety contract
/// (distinct instances share no mutable state) and outlive every run, as
/// must `golden` when set_golden() is used.
class CutListUniverse final : public Universe {
public:
    explicit CutListUniverse(std::vector<const filter::Cut*> cuts,
                             const filter::Cut* golden = nullptr);

    [[nodiscard]] std::size_t size() const noexcept override {
        return cuts_.size();
    }
    [[nodiscard]] std::string label(std::size_t i) const override;
    void set_golden(SignaturePipeline& pipeline) const override;

private:
    [[nodiscard]] SignaturePipeline::CutEvaluation evaluate_member(
        std::size_t i, const SignaturePipeline& pipeline,
        UniverseWorker& worker) const override;

    std::vector<const filter::Cut*> cuts_;
    const filter::Cut* golden_;
};

/// Behavioural deviation grid: member i is the nominal Biquad with
/// `parameter` shifted by deviations_percent[i] percent (the Fig. 8
/// universe shape); the golden is the nominal.
class DeviationUniverse final : public Universe {
public:
    DeviationUniverse(filter::Biquad nominal,
                      std::vector<double> deviations_percent,
                      SweptParameter parameter = SweptParameter::f0);

    [[nodiscard]] std::size_t size() const noexcept override {
        return deviations_percent_.size();
    }
    [[nodiscard]] std::string label(std::size_t i) const override;
    void set_golden(SignaturePipeline& pipeline) const override;

    /// The one construction of a deviation member.
    [[nodiscard]] filter::BehaviouralCut member(std::size_t i) const;

private:
    [[nodiscard]] SignaturePipeline::CutEvaluation evaluate_member(
        std::size_t i, const SignaturePipeline& pipeline,
        UniverseWorker& worker) const override;

    filter::Biquad nominal_;
    std::vector<double> deviations_percent_;
    SweptParameter parameter_;
};

/// SPICE fault universe over a shared nominal netlist; the golden is the
/// fault-free netlist. Each worker deep-clones the nominal once, then
/// injects and repairs faults in place (capture::ScopedFaultInjection) —
/// bit-identical to simulating a fresh fault-injected clone, because every
/// transient run restarts from the DC operating point.
class FaultUniverse final : public Universe {
public:
    FaultUniverse(std::shared_ptr<const spice::Netlist> nominal,
                  std::vector<capture::NetlistFault> faults,
                  SpiceObservation observation);

    [[nodiscard]] std::size_t size() const noexcept override {
        return faults_.size();
    }
    [[nodiscard]] std::string label(std::size_t i) const override;
    void set_golden(SignaturePipeline& pipeline) const override;

private:
    [[nodiscard]] SignaturePipeline::CutEvaluation evaluate_member(
        std::size_t i, const SignaturePipeline& pipeline,
        UniverseWorker& worker) const override;

    std::shared_ptr<const spice::Netlist> nominal_;
    std::vector<capture::NetlistFault> faults_;
    SpiceObservation observation_;
};

/// Cooperative cancellation handle: share one token between a run and any
/// other thread (or the result callback itself) and call cancel(). Workers
/// stop claiming work and finish the member in flight; already-evaluated
/// results still reach the callback in ascending member order (gaps
/// allowed).
class CancelToken {
public:
    void cancel() noexcept { cancelled_.store(true, std::memory_order_relaxed); }
    [[nodiscard]] bool cancelled() const noexcept {
        return cancelled_.load(std::memory_order_relaxed);
    }

private:
    std::atomic<bool> cancelled_{false};
};

/// Wall-clock accounting of one completed work unit.
struct ShardTiming {
    std::size_t shard = 0;        ///< shard index (member range start / size)
    std::size_t first_member = 0;
    std::size_t member_count = 0; ///< members actually evaluated (cancellation
                                  ///< may cut a shard short)
    unsigned worker = 0;          ///< worker slot that ran the unit
    double seconds = 0.0;
};

/// What run_universe reports when a run finishes, is cancelled, or fails.
struct RunSummary {
    std::size_t members_total = 0;
    std::size_t members_done = 0;
    std::size_t shards_total = 0;
    std::size_t shards_done = 0;
    bool cancelled = false;
    double seconds = 0.0;
    /// Netlist deep-clones made by workers: at most one per participating
    /// worker (the clone-per-worker contract), 0 for behavioural universes.
    std::uint64_t netlist_clones = 0;
    std::vector<ShardTiming> shard_timings; ///< sorted by shard index
};

/// Where run_universe evaluates.
struct Schedule {
    ThreadPool* pool = nullptr; ///< null: every member on the calling thread
    unsigned workers = 1;       ///< pool tasks claiming shards
};

/// Evaluates every member of `universe` against the pipeline's golden,
/// sharded into contiguous work units of work_unit_size(members,
/// schedule.workers) that schedule.workers pool tasks claim dynamically,
/// and invokes on_result once per evaluated member on the CALLER's thread,
/// in ascending member order (contiguous from 0 unless cancelled); pool
/// tasks deliver through an OrderedMerge. Blocks until the run completes,
/// is cancelled, or fails; a non-member error (InvalidInput, a contract
/// violation, a throwing on_result) stops the workers and is rethrown once
/// every task has let go of the run, after the members already evaluated
/// are delivered (unless on_result threw). A schedule with one evaluator
/// (no pool, one worker, or one shard) runs on the calling thread.
/// Results never depend on the schedule.
RunSummary run_universe(const Universe& universe,
                        const SignaturePipeline& pipeline,
                        const Schedule& schedule,
                        const std::function<void(const MemberResult&)>& on_result,
                        const CancelToken* cancel = nullptr);

} // namespace xysig::core

#endif // XYSIG_CORE_UNIVERSE_H
