// AC analysis tests against first/second-order analytic responses.

#include "spice/ac.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "spice/dc.h"
#include "spice/diode.h"
#include "spice/elements.h"
#include "spice/mosfet.h"

namespace xysig::spice {
namespace {

TEST(Ac, RcLowPassMagnitudeAndPhase) {
    const double r = 1e3, c = 1e-9;
    const double fc = 1.0 / (kTwoPi * r * c);
    Netlist nl;
    const NodeId in = nl.node("in");
    const NodeId out = nl.node("out");
    auto& v = nl.add<VoltageSource>("V1", in, kGround, 0.0);
    v.set_ac(1.0);
    nl.add<Resistor>("R1", in, out, r);
    nl.add<Capacitor>("C1", out, kGround, c);

    AcOptions opts;
    opts.f_start = fc / 100.0;
    opts.f_stop = fc * 100.0;
    opts.points_per_decade = 10;
    const auto res = run_ac(nl, opts);

    for (std::size_t i = 0; i < res.frequencies().size(); ++i) {
        const double f = res.frequencies()[i];
        const std::complex<double> expected =
            1.0 / std::complex<double>(1.0, f / fc);
        const auto got = res.voltage("out", i);
        EXPECT_NEAR(std::abs(got), std::abs(expected), 1e-6);
        EXPECT_NEAR(std::arg(got), std::arg(expected), 1e-6);
    }
}

TEST(Ac, RlcSeriesResonancePeak) {
    const double r = 100.0, l = 1e-3, c = 1e-9; // Q = 10: wide enough to sample
    const double f0 = 1.0 / (kTwoPi * std::sqrt(l * c));
    const double q = std::sqrt(l / c) / r; // ~100
    Netlist nl;
    const NodeId in = nl.node("in");
    const NodeId a = nl.node("a");
    const NodeId out = nl.node("out");
    auto& v = nl.add<VoltageSource>("V1", in, kGround, 0.0);
    v.set_ac(1.0);
    nl.add<Resistor>("R1", in, a, r);
    nl.add<Inductor>("L1", a, out, l);
    nl.add<Capacitor>("C1", out, kGround, c);

    AcOptions opts;
    opts.f_start = f0 * 0.5;
    opts.f_stop = f0 * 2.0;
    opts.points_per_decade = 400;
    const auto res = run_ac(nl, opts);

    // Capacitor voltage peaks near f0 with magnitude ~ Q.
    double peak = 0.0;
    double f_peak = 0.0;
    for (std::size_t i = 0; i < res.frequencies().size(); ++i) {
        const double m = std::abs(res.voltage("out", i));
        if (m > peak) {
            peak = m;
            f_peak = res.frequencies()[i];
        }
    }
    EXPECT_NEAR(f_peak, f0, 0.02 * f0);
    EXPECT_NEAR(peak, q, 0.05 * q);
}

TEST(Ac, OpampInvertingAmpIsFlat) {
    Netlist nl;
    const NodeId in = nl.node("in");
    const NodeId vm = nl.node("vm");
    const NodeId out = nl.node("out");
    auto& v = nl.add<VoltageSource>("V1", in, kGround, 0.0);
    v.set_ac(1.0);
    nl.add<Resistor>("R1", in, vm, 1e3);
    nl.add<Resistor>("R2", vm, out, 5e3);
    nl.add<IdealOpamp>("U1", kGround, vm, out);
    AcOptions opts;
    opts.f_start = 10.0;
    opts.f_stop = 1e6;
    opts.points_per_decade = 5;
    const auto res = run_ac(nl, opts);
    for (std::size_t i = 0; i < res.frequencies().size(); ++i) {
        EXPECT_NEAR(std::abs(res.voltage("out", i)), 5.0, 1e-6);
        EXPECT_NEAR(std::abs(std::arg(res.voltage("out", i))), kPi, 1e-6);
    }
}

TEST(Ac, MosfetCommonSourceGainMatchesGmRd) {
    // Small-signal gain of a common-source stage: -gm*(RD || ro).
    Netlist nl;
    const NodeId vdd = nl.node("vdd");
    const NodeId g = nl.node("g");
    const NodeId d = nl.node("d");
    nl.add<VoltageSource>("VDD", vdd, kGround, 1.2);
    auto& vg = nl.add<VoltageSource>("VG", g, kGround, 0.6);
    vg.set_ac(1.0);
    const double rd = 10e3;
    nl.add<Resistor>("RD", vdd, d, rd);
    MosParams p;
    p.w = 1.8e-6;
    p.l = 180e-9;
    nl.add<Mosfet>("M1", d, g, kGround, p);

    // Compute expected gain from the solved operating point.
    const auto op = dc_operating_point(nl);
    const auto e = mos_evaluate(p, 0.6, op.voltage("d"));
    const double expected = e.gm / (1.0 / rd + e.gds);

    AcOptions opts;
    opts.f_start = 100.0;
    opts.f_stop = 1000.0;
    opts.points_per_decade = 3;
    const auto res = run_ac(nl, opts);
    EXPECT_NEAR(std::abs(res.voltage("d", 0)), expected, 1e-6 * expected);
}

TEST(Ac, MagnitudePhaseHelpers) {
    Netlist nl;
    const NodeId in = nl.node("in");
    const NodeId out = nl.node("out");
    auto& v = nl.add<VoltageSource>("V1", in, kGround, 0.0);
    v.set_ac(2.0); // non-unit AC magnitude scales the response
    nl.add<Resistor>("R1", in, out, 1e3);
    nl.add<Resistor>("R2", out, kGround, 1e3);
    AcOptions opts;
    opts.f_start = 1e3;
    opts.f_stop = 1e4;
    opts.points_per_decade = 2;
    const auto res = run_ac(nl, opts);
    const auto mags = res.magnitude("out");
    const auto phases = res.phase("out");
    ASSERT_EQ(mags.size(), res.frequencies().size());
    for (std::size_t i = 0; i < mags.size(); ++i) {
        EXPECT_NEAR(mags[i], 1.0, 1e-9); // divider halves the 2 V drive
        EXPECT_NEAR(phases[i], 0.0, 1e-9);
    }
}

TEST(Ac, EveryDeviceKindLinearisesAtTheOperatingPoint) {
    // One circuit with every device kind: a diode biased through R1 by a
    // 1 V source whose AC drive has phase 0.3 rad, a VCVS and a VCCS sensing
    // the diode, a DC current source into a resistor of its own, and an
    // R-L-C ladder behind the VCVS.
    const double r1 = 1e3, gain = 3.0, gm = 2e-3, rg = 1e3;
    const double i_dc = 1e-3, rh = 2e3, rs = 100.0, l = 1e-3, c = 1e-9;
    Netlist nl;
    const NodeId in = nl.node("in");
    const NodeId a = nl.node("a");
    const NodeId e = nl.node("e");
    const NodeId g = nl.node("g");
    const NodeId h = nl.node("h");
    const NodeId m = nl.node("m");
    const NodeId n = nl.node("n");
    nl.add<VoltageSource>("V1", in, kGround, 1.0).set_ac(1.0, 0.3);
    nl.add<Resistor>("R1", in, a, r1);
    const auto& diode = nl.add<Diode>("D1", a, kGround);
    nl.add<Vcvs>("E1", e, kGround, a, kGround, gain);
    nl.add<Vccs>("G1", g, kGround, a, kGround, gm);
    nl.add<Resistor>("RG", g, kGround, rg);
    nl.add<CurrentSource>("I1", kGround, h, i_dc);
    nl.add<Resistor>("RH", h, kGround, rh);
    nl.add<Resistor>("RS", e, m, rs);
    nl.add<Inductor>("L1", m, n, l);
    nl.add<Capacitor>("C1", n, kGround, c);

    const OperatingPoint op = dc_operating_point(nl);
    const double gd = diode.evaluate(op.voltage(a)).gd;
    EXPECT_NEAR(op.voltage(h), i_dc * rh, 1e-6); // the source biases h in DC

    AcOptions opts;
    opts.f_start = 1e3;
    opts.f_stop = 1e6;
    opts.points_per_decade = 1;
    const auto res = run_ac(nl, opts);
    ASSERT_EQ(res.frequencies().size(), 4u);
    const std::complex<double> j(0.0, 1.0);
    for (std::size_t i = 0; i < res.frequencies().size(); ++i) {
        SCOPED_TRACE(res.frequencies()[i]);
        const double omega = kTwoPi * res.frequencies()[i];
        const std::complex<double> vin = res.voltage(in, i);
        const std::complex<double> va = res.voltage(a, i);
        const std::complex<double> ve = res.voltage(e, i);
        EXPECT_NEAR(std::abs(vin - std::polar(1.0, 0.3)), 0.0, 1e-15);
        // The diode is its conductance gd at the operating point.
        const std::complex<double> va_expected = vin / r1 / (1.0 / r1 + gd + kGmin);
        EXPECT_NEAR(std::abs(va - va_expected), 0.0, 1e-13 * std::abs(va));
        EXPECT_NEAR(std::abs(ve - gain * va), 0.0, 1e-15);
        // gm * v(a) leaves g through G1: v(g) (1/RG + gmin) = -gm * v(a).
        const std::complex<double> vg_expected = -gm * va / (1.0 / rg + kGmin);
        EXPECT_NEAR(std::abs(res.voltage(g, i) - vg_expected), 0.0,
                    1e-13 * std::abs(vg_expected));
        // The current source adds no AC drive.
        EXPECT_EQ(res.voltage(h, i), std::complex<double>(0.0, 0.0));
        // The R-L-C ladder, with gmin at m and n.
        const std::complex<double> yn = j * omega * c + kGmin;
        const std::complex<double> across_l = 1.0 + j * omega * l * yn;
        const std::complex<double> vn_expected =
            ve / (rs * (across_l * (1.0 / rs + kGmin) + yn));
        EXPECT_NEAR(std::abs(res.voltage(n, i) - vn_expected), 0.0,
                    1e-12 * std::abs(vn_expected));
        EXPECT_NEAR(std::abs(res.voltage(m, i) - across_l * vn_expected), 0.0,
                    1e-12 * std::abs(vn_expected));
    }

    // The bits, pinned: each device's AC model is its DC stamp at the
    // operating point plus only the reactances and the AC drive.
    const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    struct Pin {
        NodeId node;
        std::size_t point;
        double re;
        double im;
    };
    for (const Pin& pin : {Pin{a, 0, 0x1.fe00bcc051f3p-5, 0x1.3b8656704f756p-6},
                           Pin{e, 1, 0x1.7e808d903d765p-3, 0x1.d94981a877301p-5},
                           Pin{g, 2, -0x1.fe00bcb7c380fp-4, -0x1.3b86566b044a2p-5},
                           Pin{m, 3, 0x1.7c77f7992b2bbp-3, 0x1.f22353e8fdb3ap-5},
                           Pin{n, 1, 0x1.80c09283f0a9fp-3, 0x1.d1746da443c81p-5},
                           Pin{n, 2, 0x1.42acdeb1779adp-2, 0x1.01028533ac06fp-4}}) {
        SCOPED_TRACE(nl.node_name(pin.node) + " at point " + std::to_string(pin.point));
        const std::complex<double> v = res.voltage(pin.node, pin.point);
        EXPECT_EQ(bits(v.real()), bits(pin.re));
        EXPECT_EQ(bits(v.imag()), bits(pin.im));
    }
}

TEST(Ac, RejectsBadFrequencyRange) {
    Netlist nl;
    const NodeId in = nl.node("in");
    nl.add<VoltageSource>("V1", in, kGround, 1.0);
    nl.add<Resistor>("R1", in, kGround, 1e3);
    AcOptions opts;
    opts.f_start = 100.0;
    opts.f_stop = 10.0;
    EXPECT_THROW((void)run_ac(nl, opts), ContractError);
}

} // namespace
} // namespace xysig::spice
