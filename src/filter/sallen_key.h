#ifndef XYSIG_FILTER_SALLEN_KEY_H
#define XYSIG_FILTER_SALLEN_KEY_H

/// \file sallen_key.h
/// Unity-gain Sallen-Key low-pass as a second CUT (application scenario
/// beyond the paper's Biquad; same test method, different topology).
///
/// Design (K = 1 follower, equal resistors R):
///   w0 = 1/(R*sqrt(C1*C2)),  Q = sqrt(C1*C2)/(2*C2) = 0.5*sqrt(C1/C2).
/// f0 deviations scale both capacitors: C' = C/(1+d)^... both by 1/(1+d).

#include <string>

#include "filter/biquad.h"
#include "spice/netlist.h"

namespace xysig::filter {

/// Component values of the unity-gain Sallen-Key section.
struct SallenKeyDesign {
    double r = 10e3; ///< both series resistors
    double c1 = 3.18e-9;
    double c2 = 0.8e-9;

    /// Series resistance of every from_biquad realisation.
    static constexpr double kBaseResistance = 10e3;

    /// Derives values for a low-pass BiquadDesign (gain is forced to 1).
    static SallenKeyDesign from_biquad(const BiquadDesign& d);

    [[nodiscard]] double f0() const noexcept;
    [[nodiscard]] double q_factor() const noexcept;
};

/// Built Sallen-Key circuit with its observation points.
struct SallenKeyCircuit {
    spice::Netlist netlist;
    std::string input_source = "Vin";
    std::string input_node = "in";
    std::string lp_node = "out";
    SallenKeyDesign design;

    /// f0' = f0*(1+delta) by scaling both capacitors.
    void inject_f0_shift(double delta_fraction);
};

[[nodiscard]] SallenKeyCircuit build_sallen_key(const SallenKeyDesign& design);

} // namespace xysig::filter

#endif // XYSIG_FILTER_SALLEN_KEY_H
