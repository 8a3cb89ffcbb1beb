#ifndef XYSIG_SUPPORT_REFERENCE_TRANSIENT_H
#define XYSIG_SUPPORT_REFERENCE_TRANSIENT_H

/// \file reference_transient.h
/// The DC and transient engines without an MNA workspace: every Newton
/// iteration stamps a freshly allocated system and solves it with
/// solve_linear_system, which factorises it afresh. The tests run them
/// beside spice::dc_operating_point and spice::stream_transient to show that
/// reusing the factors and the solution changes no bit. The solver
/// configuration (tolerances, damping, gmin and the ladder's rungs) is
/// written out here as literals, not read from the library, so a changed
/// library value makes the engine and its reference disagree.

#include <cstddef>
#include <vector>

#include "spice/transient.h"

namespace xysig::spice {

/// dc_operating_point's contract, with the Newton loop re-factorising at
/// every iteration: the unknowns of the same operating point, or the same
/// NumericError text.
std::vector<double> reference_operating_point(const Netlist& nl);

/// stream_transient's contract, with the Newton loop re-factorising at every
/// iteration: the same steps to on_step, the same NumericError texts.
/// Returns the Newton iterations of the steps.
std::size_t reference_stream_transient(const Netlist& nl, const TransientOptions& opts,
                                       const TransientStepSink& on_step);

} // namespace xysig::spice

#endif // XYSIG_SUPPORT_REFERENCE_TRANSIENT_H
