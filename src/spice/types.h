#ifndef XYSIG_SPICE_TYPES_H
#define XYSIG_SPICE_TYPES_H

/// \file types.h
/// Shared vocabulary types of the circuit simulation engine.

#include <cstdint>

namespace xysig::spice {

/// Node identifier. 0 is always ground; analysis unknown index = id - 1.
using NodeId = std::int32_t;

inline constexpr NodeId kGround = 0;

/// What the engine is currently solving.
enum class AnalysisMode {
    dc_op,     ///< nonlinear DC operating point (capacitors open, inductors short)
    transient, ///< time step with companion models
};

/// Implicit integration method for transient analysis.
enum class Integrator {
    backward_euler, ///< A-stable, first order; used for the first step
    trapezoidal,    ///< A-stable, second order; default
};

/// Newton-Raphson controls.
struct NewtonOptions {
    int max_iterations = 200;
    /// Convergence: max |delta_x| over all unknowns below this.
    double abstol = 1e-9;
    /// Relative term added per-unknown: |delta| <= abstol + reltol*|x|.
    double reltol = 1e-6;
    /// Damping: per-iteration update is scaled so its inf-norm never exceeds
    /// this (volts); keeps the exponential device models in range.
    double max_step = 0.5;
};

/// DC operating point controls.
struct DcOptions {
    NewtonOptions newton;
    /// Shunt conductance from every node to ground; aids convergence and
    /// uniquely determines floating nodes.
    double gmin = 1e-12;
    /// Largest gmin used by gmin-stepping when plain NR fails.
    double gmin_stepping_start = 1e-3;
    /// Number of source-stepping ramp points when gmin stepping also fails.
    int source_steps = 10;
};

/// Transient analysis controls.
struct TransientOptions {
    double t_start = 0.0;
    double t_stop = 1e-3;
    double dt = 1e-6; ///< fixed step
    Integrator integrator = Integrator::trapezoidal;
    DcOptions dc;     ///< options for the initial operating point
};

/// AC sweep controls (log-spaced points).
struct AcOptions {
    double f_start = 1.0;
    double f_stop = 1e6;
    std::size_t points_per_decade = 20;
    DcOptions dc; ///< options for the linearisation operating point
};

} // namespace xysig::spice

#endif // XYSIG_SPICE_TYPES_H
