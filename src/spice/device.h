#ifndef XYSIG_SPICE_DEVICE_H
#define XYSIG_SPICE_DEVICE_H

/// \file device.h
/// Device interface of the circuit engine.
///
/// A device knows how to stamp its companion/linearised model into the MNA
/// system for the current Newton iterate (stamp), how to stamp its
/// small-signal model for AC analysis (stamp_ac), and how to carry reactive
/// state across transient steps (begin_transient / step_accepted).

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "spice/mna.h"
#include "spice/types.h"

namespace xysig::spice {

/// Everything a device needs to stamp one Newton iteration.
struct StampContext {
    AnalysisMode mode = AnalysisMode::dc_op;
    Integrator integrator = Integrator::trapezoidal;
    double time = 0.0;         ///< evaluation time for sources (end of step)
    double dt = 0.0;           ///< current step; 0 in DC
    double source_scale = 1.0; ///< source stepping ramp; 1 in normal solves
    std::span<const double> x; ///< current Newton iterate
    RealAssembler* mna = nullptr;

    /// Voltage of a node in the current iterate (0 for ground).
    [[nodiscard]] double v(NodeId n) const {
        return n == kGround ? 0.0 : x[static_cast<std::size_t>(n) - 1];
    }
    /// Value of an extra branch variable by raw unknown index.
    [[nodiscard]] double extra(int idx) const {
        return x[static_cast<std::size_t>(idx)];
    }
};

/// Context for one AC frequency point.
struct AcStampContext {
    double omega = 0.0;              ///< angular frequency (rad/s)
    std::span<const double> op;      ///< DC operating point (linearisation)
    ComplexAssembler* mna = nullptr;

    [[nodiscard]] double op_v(NodeId n) const {
        return n == kGround ? 0.0 : op[static_cast<std::size_t>(n) - 1];
    }
};

/// Base class of every circuit element.
class Device {
public:
    Device(std::string name, std::vector<NodeId> nodes);
    virtual ~Device() = default;

    Device& operator=(const Device&) = delete;

    /// Deep copy of this device, including any transient state, suitable for
    /// insertion into a cloned netlist (node ids are netlist-relative and
    /// copied verbatim). Backbone of Netlist::clone(), which gives every
    /// batch worker its own re-entrant circuit.
    [[nodiscard]] virtual std::unique_ptr<Device> clone() const = 0;

    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    [[nodiscard]] std::span<const NodeId> nodes() const noexcept { return nodes_; }

    /// Number of extra branch variables (voltage-source currents etc.).
    [[nodiscard]] virtual int extra_variable_count() const { return 0; }

    /// Assigned by the analysis before solving; base index of this device's
    /// extra variables in the unknown vector.
    void set_extra_base(int base) noexcept { extra_base_ = base; }
    [[nodiscard]] int extra_base() const noexcept { return extra_base_; }

    /// Adds this device's contribution for the current iterate.
    virtual void stamp(StampContext& ctx) const = 0;

    /// Adds the small-signal contribution at ctx.omega. Default: nothing
    /// (ideal current sources with no AC magnitude, for example).
    virtual void stamp_ac(AcStampContext& ctx) const;

    /// Called once when a transient run starts; op_solution is the t=0
    /// operating point. Reactive devices initialise their state here.
    virtual void begin_transient(std::span<const double> op_solution);

    /// Called after a transient step converged; x is the accepted solution.
    virtual void step_accepted(std::span<const double> x, double time, double dt,
                               Integrator integrator);

protected:
    /// Copyable by derived clone() implementations only.
    Device(const Device&) = default;

    /// Voltage of the i-th connection node in a solution vector.
    [[nodiscard]] double node_v(std::span<const double> x, std::size_t i) const {
        const NodeId n = nodes_[i];
        return n == kGround ? 0.0 : x[static_cast<std::size_t>(n) - 1];
    }

private:
    std::string name_;
    std::vector<NodeId> nodes_;
    int extra_base_ = -1;
};

} // namespace xysig::spice

#endif // XYSIG_SPICE_DEVICE_H
