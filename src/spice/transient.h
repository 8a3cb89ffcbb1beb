#ifndef XYSIG_SPICE_TRANSIENT_H
#define XYSIG_SPICE_TRANSIENT_H

/// \file transient.h
/// Time-domain analysis: one fixed-step loop that hands every accepted time
/// point to a callback. A run starts at t = 0 from the DC operating point
/// (dc.h, with its one solver configuration); its first step is backward
/// Euler, which damps the operating-point discontinuity, and every later
/// step is trapezoidal. A caller that reads a window (SpiceCut: two nodes
/// over the last period) keeps only that window; TransientResult is the
/// consumer that records the whole trajectory.

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "signal/sampled.h"
#include "spice/dc.h"
#include "spice/netlist.h"
#include "spice/types.h"

namespace xysig::spice {

/// Receives accepted time point `step` at time t with every unknown of its
/// solution. Step 0 is the DC operating point at t = 0; step k is k * dt.
using TransientStepSink = std::function<void(
    std::size_t step, double t, std::span<const double> unknowns)>;

/// Solver work of one transient run.
struct TransientCounts {
    std::size_t newton_iterations = 0; ///< over the steps, not the operating point
    std::size_t lu_factorisations = 0; ///< over the whole run, operating point included
};

/// Runs a transient analysis, handing each accepted time point to on_step
/// as it is accepted. The initial condition is the DC operating point with
/// sources evaluated at t = 0; then come round(t_stop / dt) fixed steps,
/// the first by backward Euler and the rest by the trapezoidal rule. The
/// operating point and every step solve in one MnaWorkspace owned by the
/// run. Throws NumericError when the operating point or a step does not
/// converge. The netlist's device state is mutated during the run, so one
/// netlist must never be simulated from two threads at once — clone it per
/// worker (Netlist::clone()).
TransientCounts stream_transient(const Netlist& nl, const TransientOptions& opts,
                                 const TransientStepSink& on_step);

/// Stored trajectory of every unknown at every accepted time point, one
/// flat row per step. A TransientResult can be reused across runs via
/// run_transient_into(), which keeps the storage of the previous run as
/// capacity.
class TransientResult {
public:
    /// Empty result awaiting run_transient_into(); any accessor that needs
    /// stored steps requires a run first.
    TransientResult() = default;

    [[nodiscard]] std::span<const double> time() const noexcept { return time_; }
    [[nodiscard]] std::size_t step_count() const noexcept { return time_.size(); }

    /// Voltage of a node at a stored step index.
    [[nodiscard]] double voltage(NodeId node, std::size_t step) const;

    /// Full voltage trajectory of one node.
    [[nodiscard]] std::vector<double> voltage_trace(NodeId node) const;
    [[nodiscard]] std::vector<double> voltage_trace(const std::string& node) const;

    /// The trajectory of one node as a SampledSignal with the run's dt.
    [[nodiscard]] SampledSignal signal(const std::string& node) const;

    /// Newton iterations over the run's steps (engine benchmark metric).
    std::size_t total_newton_iterations = 0;
    /// LU factorisations over the whole run, operating point included.
    std::size_t lu_factorisations = 0;

private:
    friend void run_transient_into(const Netlist& nl, const TransientOptions& opts,
                                   TransientResult& out);

    const Netlist* netlist_ = nullptr;
    std::size_t width_ = 0; ///< unknowns per step
    std::vector<double> time_;
    std::vector<double> values_; ///< time_.size() rows of width_ unknowns
};

/// Runs the analysis (stream_transient) and records every step.
[[nodiscard]] TransientResult run_transient(const Netlist& nl,
                                            const TransientOptions& opts);

/// Buffer-reusing variant: clears `out` and records the run into it,
/// reusing its storage from previous runs. Numerically identical to
/// run_transient (same code path).
void run_transient_into(const Netlist& nl, const TransientOptions& opts,
                        TransientResult& out);

} // namespace xysig::spice

#endif // XYSIG_SPICE_TRANSIENT_H
