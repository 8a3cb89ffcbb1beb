#include "filter/tow_thomas.h"

#include <cmath>

#include "common/contracts.h"
#include "common/math_util.h"
#include "spice/elements.h"

namespace xysig::filter {

TowThomasDesign TowThomasDesign::from_biquad(const BiquadDesign& d) {
    XYSIG_EXPECTS(d.kind == BiquadKind::low_pass);
    TowThomasDesign t;
    t.r = kBaseResistance;
    t.rq = d.q * kBaseResistance;
    t.rin = kBaseResistance / d.gain;
    t.rg = kBaseResistance;
    t.c = 1.0 / (kTwoPi * d.f0 * kBaseResistance);
    return t;
}

double TowThomasDesign::f0() const noexcept { return 1.0 / (kTwoPi * r * c); }

TowThomasCircuit build_tow_thomas(const TowThomasDesign& design) {
    TowThomasCircuit ckt;
    ckt.design = design;
    spice::Netlist& nl = ckt.netlist;

    const auto in = nl.node("in");
    const auto sum1 = nl.node("sum1"); // A1 virtual ground
    const auto bp = nl.node("bp");
    const auto sum2 = nl.node("sum2"); // A2 virtual ground
    const auto lp = nl.node("lp");     // non-inverted LP output (A2)
    const auto sum3 = nl.node("sum3"); // A3 virtual ground
    const auto lpi = nl.node("lpi");   // inverted LP (A3), closes the loop

    nl.add<spice::VoltageSource>("Vin", in, spice::kGround, 0.0);

    // A1: lossy integrator. The loop feedback comes from the INVERTED
    // low-pass output so the loop is negative (stable); the observed
    // low-pass output with +R/Rin DC gain is A2's output.
    nl.add<spice::Resistor>("Rin", in, sum1, design.rin);
    nl.add<spice::Resistor>("Rf", lpi, sum1, design.r);
    nl.add<spice::Resistor>("Rq", sum1, bp, design.rq);
    nl.add<spice::Capacitor>("C1", sum1, bp, design.c);
    nl.add<spice::IdealOpamp>("A1", spice::kGround, sum1, bp);

    // A2: integrator -> lp.
    nl.add<spice::Resistor>("R2", bp, sum2, design.r);
    nl.add<spice::Capacitor>("C2", sum2, lp, design.c);
    nl.add<spice::IdealOpamp>("A2", spice::kGround, sum2, lp);

    // A3: unity inverter feeding the loop.
    nl.add<spice::Resistor>("Rg1", lp, sum3, design.rg);
    nl.add<spice::Resistor>("Rg2", sum3, lpi, design.rg);
    nl.add<spice::IdealOpamp>("A3", spice::kGround, sum3, lpi);

    return ckt;
}

void TowThomasCircuit::inject_f0_shift(double delta_fraction) {
    XYSIG_EXPECTS(delta_fraction > -1.0);
    const double scale = 1.0 / (1.0 + delta_fraction);
    auto& c1 = netlist.get<spice::Capacitor>("C1");
    auto& c2 = netlist.get<spice::Capacitor>("C2");
    c1.set_capacitance(design.c * scale);
    c2.set_capacitance(design.c * scale);
}

} // namespace xysig::filter
