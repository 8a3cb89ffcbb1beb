#ifndef XYSIG_SPICE_TYPES_H
#define XYSIG_SPICE_TYPES_H

/// \file types.h
/// Shared vocabulary types of the circuit simulation engine.

#include <cstddef>
#include <cstdint>

namespace xysig::spice {

/// Node identifier. 0 is always ground; analysis unknown index = id - 1.
using NodeId = std::int32_t;

inline constexpr NodeId kGround = 0;

/// Shunt conductance (S) from every node to ground, added by the DC,
/// transient and AC analyses alike: it aids convergence and uniquely
/// determines floating nodes. The DC ladder's gmin stepping relaxes down to
/// it (dc.h).
inline constexpr double kGmin = 1e-12;

/// Implicit integration method of one transient step.
enum class Integrator {
    backward_euler, ///< A-stable, first order; the first step
    trapezoidal,    ///< A-stable, second order; every later step
};

/// Transient analysis window: from t = 0 to t_stop in fixed steps of dt.
struct TransientOptions {
    double t_stop = 1e-3;
    double dt = 1e-6;
};

/// AC sweep controls (log-spaced points).
struct AcOptions {
    double f_start = 1.0;
    double f_stop = 1e6;
    std::size_t points_per_decade = 20;
};

} // namespace xysig::spice

#endif // XYSIG_SPICE_TYPES_H
