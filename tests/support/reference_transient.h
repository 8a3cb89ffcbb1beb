#ifndef XYSIG_SUPPORT_REFERENCE_TRANSIENT_H
#define XYSIG_SUPPORT_REFERENCE_TRANSIENT_H

/// \file reference_transient.h
/// The transient engine without an MNA workspace: every Newton iteration
/// stamps a freshly allocated system and solves it with solve_linear_system,
/// which factorises it afresh. The tests run it beside
/// spice::stream_transient to show that reusing the factors and the solution
/// changes no bit.

#include <cstddef>

#include "spice/transient.h"

namespace xysig::spice {

/// stream_transient's contract, with the Newton loop re-factorising at every
/// iteration: the same steps to on_step, the same NumericError texts.
/// Returns the Newton iterations of the steps.
std::size_t reference_stream_transient(const Netlist& nl, const TransientOptions& opts,
                                       const TransientStepSink& on_step);

} // namespace xysig::spice

#endif // XYSIG_SUPPORT_REFERENCE_TRANSIENT_H
