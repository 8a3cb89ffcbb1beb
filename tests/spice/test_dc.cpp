// DC analysis tests: every result is checked against hand circuit theory.

#include "spice/dc.h"

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "spice/diode.h"
#include "spice/elements.h"
#include "spice/mosfet.h"
#include "support/reference_transient.h"

namespace xysig::spice {
namespace {

TEST(DcOp, ResistiveDivider) {
    Netlist nl;
    const NodeId in = nl.node("in");
    const NodeId mid = nl.node("mid");
    nl.add<VoltageSource>("V1", in, kGround, 10.0);
    nl.add<Resistor>("R1", in, mid, 3e3);
    nl.add<Resistor>("R2", mid, kGround, 7e3);
    const auto op = dc_operating_point(nl);
    EXPECT_NEAR(op.voltage("mid"), 7.0, 1e-6); // 1e-6 absorbs gmin loading
    EXPECT_NEAR(op.voltage("in"), 10.0, 1e-6);
}

TEST(DcOp, SourceBranchCurrentIsReported) {
    Netlist nl;
    const NodeId in = nl.node("in");
    auto& v1 = nl.add<VoltageSource>("V1", in, kGround, 10.0);
    nl.add<Resistor>("R1", in, kGround, 2e3);
    const auto op = dc_operating_point(nl);
    // 5 mA flows out of the + terminal: branch current (n+ -> n- internal)
    // is -5 mA by the MNA sign convention (current leaves at n+).
    EXPECT_NEAR(v1.current(op.unknowns()), -5e-3, 1e-9);
}

TEST(DcOp, CurrentSourceIntoResistor) {
    Netlist nl;
    const NodeId out = nl.node("out");
    // 1 mA from ground into node out (I flows n+ -> n- through the source).
    nl.add<CurrentSource>("I1", kGround, out, 1e-3);
    nl.add<Resistor>("R1", out, kGround, 4e3);
    const auto op = dc_operating_point(nl);
    EXPECT_NEAR(op.voltage("out"), 4.0, 1e-6);
}

TEST(DcOp, CapacitorIsOpenInDc) {
    Netlist nl;
    const NodeId in = nl.node("in");
    const NodeId mid = nl.node("mid");
    nl.add<VoltageSource>("V1", in, kGround, 5.0);
    nl.add<Resistor>("R1", in, mid, 1e3);
    nl.add<Capacitor>("C1", mid, kGround, 1e-9);
    const auto op = dc_operating_point(nl);
    EXPECT_NEAR(op.voltage("mid"), 5.0, 1e-6); // no DC path: follows input
}

TEST(DcOp, InductorIsShortInDc) {
    Netlist nl;
    const NodeId in = nl.node("in");
    const NodeId mid = nl.node("mid");
    nl.add<VoltageSource>("V1", in, kGround, 5.0);
    nl.add<Resistor>("R1", in, mid, 1e3);
    nl.add<Inductor>("L1", mid, kGround, 1e-3);
    const auto op = dc_operating_point(nl);
    EXPECT_NEAR(op.voltage("mid"), 0.0, 1e-9);
}

TEST(DcOp, VcvsGain) {
    Netlist nl;
    const NodeId in = nl.node("in");
    const NodeId out = nl.node("out");
    nl.add<VoltageSource>("V1", in, kGround, 0.5);
    nl.add<Vcvs>("E1", out, kGround, in, kGround, 4.0);
    nl.add<Resistor>("RL", out, kGround, 1e3);
    const auto op = dc_operating_point(nl);
    EXPECT_NEAR(op.voltage("out"), 2.0, 1e-6);
}

TEST(DcOp, VccsTransconductance) {
    Netlist nl;
    const NodeId in = nl.node("in");
    const NodeId out = nl.node("out");
    nl.add<VoltageSource>("V1", in, kGround, 1.0);
    // i = gm*v(in) = 2 mA flows out->gnd through the source; with the load
    // the node voltage becomes -2 V * ... check sign: current flows from out
    // node through source to ground, pulling out low: v(out) = -gm*v(in)*R.
    nl.add<Vccs>("G1", out, kGround, in, kGround, 2e-3);
    nl.add<Resistor>("RL", out, kGround, 1e3);
    const auto op = dc_operating_point(nl);
    EXPECT_NEAR(op.voltage("out"), -2.0, 1e-6);
}

TEST(DcOp, IdealOpampBuffer) {
    Netlist nl;
    const NodeId in = nl.node("in");
    const NodeId out = nl.node("out");
    nl.add<VoltageSource>("V1", in, kGround, 1.25);
    // Unity follower: inn tied to out.
    nl.add<IdealOpamp>("U1", in, out, out);
    nl.add<Resistor>("RL", out, kGround, 1e3);
    const auto op = dc_operating_point(nl);
    EXPECT_NEAR(op.voltage("out"), 1.25, 1e-9);
}

TEST(DcOp, IdealOpampInvertingAmplifier) {
    Netlist nl;
    const NodeId in = nl.node("in");
    const NodeId vm = nl.node("vm");
    const NodeId out = nl.node("out");
    nl.add<VoltageSource>("V1", in, kGround, 0.3);
    nl.add<Resistor>("R1", in, vm, 1e3);
    nl.add<Resistor>("R2", vm, out, 3.3e3);
    nl.add<IdealOpamp>("U1", kGround, vm, out);
    const auto op = dc_operating_point(nl);
    EXPECT_NEAR(op.voltage("out"), -0.3 * 3.3, 1e-9);
    EXPECT_NEAR(op.voltage("vm"), 0.0, 1e-9); // virtual ground
}

TEST(DcOp, DiodeForwardDrop) {
    Netlist nl;
    const NodeId in = nl.node("in");
    const NodeId a = nl.node("a");
    nl.add<VoltageSource>("V1", in, kGround, 5.0);
    nl.add<Resistor>("R1", in, a, 1e3);
    nl.add<Diode>("D1", a, kGround);
    const auto op = dc_operating_point(nl);
    const double vd = op.voltage("a");
    EXPECT_GT(vd, 0.4);
    EXPECT_LT(vd, 0.8);
    // KCL closure: resistor current equals diode current.
    const double ir = (5.0 - vd) / 1e3;
    const Diode& d = nl.get<Diode>("D1");
    EXPECT_NEAR(d.evaluate(vd).id, ir, 1e-9);
}

TEST(DcOp, DiodeReverseBlocks) {
    Netlist nl;
    const NodeId in = nl.node("in");
    const NodeId a = nl.node("a");
    nl.add<VoltageSource>("V1", in, kGround, -5.0);
    nl.add<Resistor>("R1", in, a, 1e3);
    nl.add<Diode>("D1", a, kGround);
    const auto op = dc_operating_point(nl);
    EXPECT_NEAR(op.voltage("a"), -5.0, 1e-3); // only Is leaks
}

TEST(DcOp, NmosCommonSourceAmplifierBias) {
    Netlist nl;
    const NodeId vdd = nl.node("vdd");
    const NodeId g = nl.node("g");
    const NodeId d = nl.node("d");
    nl.add<VoltageSource>("VDD", vdd, kGround, 1.2);
    nl.add<VoltageSource>("VG", g, kGround, 0.6);
    nl.add<Resistor>("RD", vdd, d, 10e3);
    MosParams p;
    p.w = 1.8e-6;
    p.l = 180e-9;
    nl.add<Mosfet>("M1", d, g, kGround, p);
    const auto op = dc_operating_point(nl);
    const double vd = op.voltage("d");
    EXPECT_GT(vd, 0.0);
    EXPECT_LT(vd, 1.2);
    // KCL closure through the drain resistor.
    const double ir = (1.2 - vd) / 10e3;
    const double id = mos_evaluate(p, 0.6, vd).id;
    EXPECT_NEAR(id, ir, 1e-8);
}

TEST(DcSweep, NmosInverterTransferIsMonotonicDecreasing) {
    Netlist nl;
    const NodeId vdd = nl.node("vdd");
    const NodeId g = nl.node("g");
    const NodeId d = nl.node("d");
    nl.add<VoltageSource>("VDD", vdd, kGround, 1.2);
    nl.add<VoltageSource>("VG", g, kGround, 0.0);
    nl.add<Resistor>("RD", vdd, d, 20e3);
    MosParams p;
    p.w = 3e-6;
    p.l = 180e-9;
    nl.add<Mosfet>("M1", d, g, kGround, p);

    std::vector<double> vout;
    for (int i = 0; i <= 12; ++i) {
        nl.get<VoltageSource>("VG").set_waveform(DcWaveform(0.1 * i));
        vout.push_back(dc_operating_point(nl).voltage("d"));
    }
    EXPECT_NEAR(vout.front(), 1.2, 1e-3); // off: pulled to VDD
    EXPECT_LT(vout.back(), 0.3);          // on: pulled low
    for (std::size_t i = 1; i < vout.size(); ++i)
        EXPECT_LE(vout[i], vout[i - 1] + 1e-9);
}

TEST(DcOp, EachLadderRungIsReachedAndMatchesTheReference) {
    // A diode behind 1 kOhm. Plain Newton walks the anode up from zero in
    // damped steps of at most 0.5 V, so the source sets how far it has to
    // go: 50 V converges in 107 of its 200 iterations, 99 V does not and
    // falls to gmin stepping, 101 V defeats that too and falls to source
    // stepping, and at 1100 V even one tenth of the source is too far. The
    // counts pin the ladder's constants; the reference ladder keeps its own
    // copies of them, and its operating point must match bit for bit.
    const auto diode_circuit = [](double volts) {
        Netlist nl;
        const NodeId in = nl.node("in");
        const NodeId a = nl.node("a");
        nl.add<VoltageSource>("V1", in, kGround, volts);
        nl.add<Resistor>("R1", in, a, 1e3);
        nl.add<Diode>("D1", a, kGround);
        return nl;
    };
    struct Rung {
        double volts;
        bool gmin_stepping;
        bool source_stepping;
        int newton_iterations;
        std::size_t lu_factorisations;
    };
    for (const Rung& rung : {Rung{50.0, false, false, 107, 107},
                             Rung{99.0, true, false, 215, 415},
                             Rung{101.0, false, true, 229, 629}}) {
        SCOPED_TRACE(rung.volts);
        const Netlist nl = diode_circuit(rung.volts);
        const OperatingPoint op = dc_operating_point(nl);
        EXPECT_EQ(op.used_gmin_stepping, rung.gmin_stepping);
        EXPECT_EQ(op.used_source_stepping, rung.source_stepping);
        EXPECT_EQ(op.newton_iterations, rung.newton_iterations);
        EXPECT_EQ(op.lu_factorisations, rung.lu_factorisations);
        EXPECT_NEAR(op.voltage("a"), 0.75, 0.05); // a forward-biased junction

        const std::vector<double> reference = reference_operating_point(nl);
        ASSERT_EQ(reference.size(), op.unknowns().size());
        EXPECT_EQ(std::memcmp(reference.data(), op.unknowns().data(),
                              reference.size() * sizeof(double)),
                  0);
    }
    const Netlist too_far = diode_circuit(1100.0);
    EXPECT_THROW((void)dc_operating_point(too_far), NumericError);
    EXPECT_THROW((void)reference_operating_point(too_far), NumericError);
}

TEST(DcOp, FailsCleanlyOnUnsolvableCircuit) {
    // Two ideal voltage sources in parallel with conflicting values has no
    // solution; the engine must throw NumericError, not hang or crash.
    Netlist nl;
    const NodeId a = nl.node("a");
    nl.add<VoltageSource>("V1", a, kGround, 1.0);
    nl.add<VoltageSource>("V2", a, kGround, 2.0);
    EXPECT_THROW((void)dc_operating_point(nl), NumericError);
}

} // namespace
} // namespace xysig::spice
