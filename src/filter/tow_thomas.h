#ifndef XYSIG_FILTER_TOW_THOMAS_H
#define XYSIG_FILTER_TOW_THOMAS_H

/// \file tow_thomas.h
/// Tow-Thomas two-integrator-loop Biquad as a SPICE netlist — the circuit
/// realisation of the paper's CUT.
///
/// Topology (three ideal opamps):
///   A1: lossy inverting integrator, feedback C1 || Rq, inputs Vin via Rin
///       and the inverted low-pass output v(lpi) via Rf -> v(bp) (band-pass)
///   A2: inverting integrator, input v(bp) via R2, feedback C2 -> v(lp),
///       the non-inverting low-pass output (DC gain +R/Rin)
///   A3: unity inverter (Rg/Rg) -> v(lpi), closing the loop
///
/// With R2 = Rf = R and C1 = C2 = C the design equations are
///   w0 = 1/(R*C),  Q = Rq/R,  DC gain (at v(lp)) = R/Rin.
/// f0 deviations are injected by scaling both capacitors:
/// f0' = f0*(1+d) <=> C' = C/(1+d).

#include <string>

#include "filter/biquad.h"
#include "spice/netlist.h"

namespace xysig::filter {

/// Component values realising a BiquadDesign.
struct TowThomasDesign {
    double r = 10e3;   ///< integrator resistor R (= R2 = Rf)
    double rq = 10e3;  ///< damping resistor (Q = rq/r)
    double rin = 10e3; ///< input resistor (gain = r/rin)
    double rg = 10e3;  ///< inverter resistors
    double c = 1.59e-9;///< integrator capacitors C1 = C2

    /// Base resistance of every from_biquad realisation: R and Rg, and the
    /// scale of Rq and Rin.
    static constexpr double kBaseResistance = 10e3;

    /// Derives component values from a behavioural design.
    static TowThomasDesign from_biquad(const BiquadDesign& d);

    [[nodiscard]] double f0() const noexcept;
    [[nodiscard]] double q_factor() const noexcept { return rq / r; }
    [[nodiscard]] double dc_gain() const noexcept { return r / rin; }
};

/// A built Tow-Thomas circuit: the netlist plus the names needed to drive
/// and observe it.
struct TowThomasCircuit {
    spice::Netlist netlist;
    std::string input_source = "Vin"; ///< VoltageSource to set the stimulus on
    std::string input_node = "in";    ///< x(t) observation point
    std::string lp_node = "lp";       ///< y(t): non-inverted low-pass output
    std::string bp_node = "bp";       ///< band-pass output (A1)
    TowThomasDesign design;

    /// Scales both integrator capacitors so the realised natural frequency
    /// becomes f0*(1+delta) — the paper's parametric defect.
    void inject_f0_shift(double delta_fraction);
};

/// Builds the circuit with a zero-volt input source (replace its waveform to
/// apply a stimulus).
[[nodiscard]] TowThomasCircuit build_tow_thomas(const TowThomasDesign& design);

} // namespace xysig::filter

#endif // XYSIG_FILTER_TOW_THOMAS_H
