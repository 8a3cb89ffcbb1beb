#ifndef XYSIG_CORE_PAPER_SETUP_H
#define XYSIG_CORE_PAPER_SETUP_H

/// \file paper_setup.h
/// The reference experiment configuration used to reproduce the paper's
/// figures. The paper specifies its stimulus and Biquad only graphically;
/// these values were calibrated so that the published anchors below hold
/// with the Table I monitor bank (tests/integration/test_paper_reproduction.cpp
/// checks them end to end):
///  * Lissajous period T = 200 us (Fig. 7 time axis),
///  * NDF(+10% f0) ~ 0.10 (paper: 0.1021),
///  * NDF growing almost linearly and nearly symmetrically to ~0.2-0.3 at
///    +/-20% (Fig. 8),
///  * 16 Gray-coded zones with exactly Fig. 6's code set.

#include "filter/biquad.h"
#include "filter/tow_thomas.h"
#include "signal/waveform.h"

namespace xysig::core {

/// Two-tone stimulus: 0.5 + 0.3 sin(2pi 5kHz t) + 0.15 sin(2pi 15kHz t + pi).
/// Common period exactly 200 us; excursion [0.05, 0.95] V fits the monitor
/// window.
[[nodiscard]] MultitoneWaveform paper_stimulus();

/// The CUT: low-pass Biquad, f0 = 14 kHz, Q = 1, unity DC gain.
[[nodiscard]] filter::Biquad paper_biquad();

/// The CUT as a circuit: paper_biquad() realised as a Tow-Thomas netlist
/// (TowThomasDesign::from_biquad). It is the nominal every SPICE fault
/// universe, the server's included, is read against.
[[nodiscard]] filter::TowThomasCircuit paper_tow_thomas();

} // namespace xysig::core

#endif // XYSIG_CORE_PAPER_SETUP_H
