#include "filter/sallen_key.h"

#include <cmath>

#include "common/contracts.h"
#include "common/math_util.h"
#include "spice/elements.h"

namespace xysig::filter {

SallenKeyDesign SallenKeyDesign::from_biquad(const BiquadDesign& d) {
    XYSIG_EXPECTS(d.kind == BiquadKind::low_pass);
    // With equal R: Q = 0.5*sqrt(c1/c2) and w0 = 1/(R*sqrt(c1*c2)).
    SallenKeyDesign s;
    s.r = kBaseResistance;
    const double w0 = kTwoPi * d.f0;
    const double c_geom = 1.0 / (w0 * kBaseResistance); // sqrt(c1*c2)
    const double ratio = 4.0 * d.q * d.q;      // c1/c2
    s.c1 = c_geom * std::sqrt(ratio);
    s.c2 = c_geom / std::sqrt(ratio);
    return s;
}

double SallenKeyDesign::f0() const noexcept {
    return 1.0 / (kTwoPi * r * std::sqrt(c1 * c2));
}

double SallenKeyDesign::q_factor() const noexcept {
    return 0.5 * std::sqrt(c1 / c2);
}

SallenKeyCircuit build_sallen_key(const SallenKeyDesign& design) {
    SallenKeyCircuit ckt;
    ckt.design = design;
    spice::Netlist& nl = ckt.netlist;

    const auto in = nl.node("in");
    const auto mid = nl.node("mid");
    const auto plus = nl.node("plus");
    const auto out = nl.node("out");

    nl.add<spice::VoltageSource>("Vin", in, spice::kGround, 0.0);
    nl.add<spice::Resistor>("R1", in, mid, design.r);
    nl.add<spice::Resistor>("R2", mid, plus, design.r);
    nl.add<spice::Capacitor>("C1", mid, out, design.c1); // bootstrap
    nl.add<spice::Capacitor>("C2", plus, spice::kGround, design.c2);
    // Unity-gain follower: inn tied to out.
    nl.add<spice::IdealOpamp>("U1", plus, out, out);
    return ckt;
}

void SallenKeyCircuit::inject_f0_shift(double delta_fraction) {
    XYSIG_EXPECTS(delta_fraction > -1.0);
    const double scale = 1.0 / (1.0 + delta_fraction);
    netlist.get<spice::Capacitor>("C1").set_capacitance(design.c1 * scale);
    netlist.get<spice::Capacitor>("C2").set_capacitance(design.c2 * scale);
}

} // namespace xysig::filter
