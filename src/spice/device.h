#ifndef XYSIG_SPICE_DEVICE_H
#define XYSIG_SPICE_DEVICE_H

/// \file device.h
/// Device interface of the circuit engine.
///
/// A device's electrical model lives in stamp(): its linearised (and, in a
/// transient step, companion) model at a StampContext, which every analysis
/// stamps through one routine (detail::stamp_system, dc.h). AC analysis
/// linearises at the DC operating point with that same stamp and asks a
/// device only for what AC adds to it (stamp_ac). begin_transient and
/// step_accepted carry reactive state across transient steps.

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "spice/mna.h"
#include "spice/types.h"

namespace xysig::spice {

/// The point a device is stamped at: one Newton iterate of a DC solve or
/// transient step, or the DC operating point an AC sweep linearises at.
struct StampContext {
    Integrator integrator = Integrator::trapezoidal;
    double time = 0.0;         ///< evaluation time for sources (end of step)
    double dt = 0.0;           ///< current step; 0 in DC (capacitors open,
                               ///< inductors short)
    double source_scale = 1.0; ///< source stepping ramp; 1 in normal solves
    std::span<const double> x{}; ///< the unknowns the device linearises at
    RealAssembler* mna = nullptr; ///< set by detail::stamp_system
};

/// Context for one AC frequency point.
struct AcStampContext {
    double omega = 0.0; ///< angular frequency (rad/s)
    ComplexAssembler* mna = nullptr;
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

    /// Adds what AC analysis adds at ctx.omega to this device's stamp() at
    /// the DC operating point, which run_ac has already stamped as the real
    /// part: a reactive admittance or an AC drive. Default: nothing, for a
    /// device whose small-signal model is its linearised stamp().
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

private:
    std::string name_;
    std::vector<NodeId> nodes_;
    int extra_base_ = -1;
};

} // namespace xysig::spice

#endif // XYSIG_SPICE_DEVICE_H
