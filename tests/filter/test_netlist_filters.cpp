// Cross-validation of the Tow-Thomas and Sallen-Key netlist builders
// against the behavioural Biquad: the same transfer function must emerge
// from our own AC engine.

#include <cmath>
#include <complex>

#include <gtest/gtest.h>

#include "core/paper_setup.h"
#include "filter/sallen_key.h"
#include "filter/tow_thomas.h"
#include "spice/ac.h"
#include "spice/elements.h"
#include "support/pin.h"

namespace xysig::filter {
namespace {

TEST(TowThomasDesign, FromBiquadRealisesParameters) {
    const BiquadDesign d{.f0 = 14e3, .q = 1.0, .gain = 1.0,
                         .kind = BiquadKind::low_pass};
    const TowThomasDesign t = TowThomasDesign::from_biquad(d);
    EXPECT_NEAR(t.f0(), 14e3, 1e-6 * 14e3);
    EXPECT_NEAR(t.q_factor(), 1.0, 1e-12);
    EXPECT_NEAR(t.dc_gain(), 1.0, 1e-12);
}

TEST(FromBiquad, PaperBiquadRealisationsArePinned) {
    // Component values of both realisations of the paper's CUT, bit for bit.
    const BiquadDesign d = core::paper_biquad().design();
    const TowThomasDesign t = TowThomasDesign::from_biquad(d);
    const std::uint64_t r_10k = 0x40c3880000000000ULL;
    EXPECT_EQ(bits_of(t.r), r_10k);
    EXPECT_EQ(bits_of(t.rq), r_10k);
    EXPECT_EQ(bits_of(t.rin), r_10k);
    EXPECT_EQ(bits_of(t.rg), r_10k);
    EXPECT_EQ(bits_of(t.c), 0x3e1387caaed00ea3ULL);
    const SallenKeyDesign s = SallenKeyDesign::from_biquad(d);
    EXPECT_EQ(bits_of(s.r), r_10k);
    EXPECT_EQ(bits_of(s.c1), 0x3e2387caaed00ea3ULL);
    EXPECT_EQ(bits_of(s.c2), 0x3e0387caaed00ea3ULL);
}

TEST(TowThomas, AcResponseMatchesBehaviouralBiquad) {
    const BiquadDesign d{.f0 = 10e3, .q = 1.5, .gain = 2.0,
                         .kind = BiquadKind::low_pass};
    const Biquad behavioural(d);
    TowThomasCircuit ckt = build_tow_thomas(TowThomasDesign::from_biquad(d));
    ckt.netlist.get<spice::VoltageSource>("Vin").set_ac(1.0);

    spice::AcOptions opts;
    opts.f_start = 100.0;
    opts.f_stop = 1e6;
    opts.points_per_decade = 10;
    const auto res = spice::run_ac(ckt.netlist, opts);

    for (std::size_t i = 0; i < res.frequencies().size(); ++i) {
        const double f = res.frequencies()[i];
        const std::complex<double> expected = behavioural.transfer(f);
        const std::complex<double> got = res.voltage(ckt.lp_node, i);
        EXPECT_NEAR(std::abs(got), std::abs(expected), 1e-4 * std::abs(expected) + 1e-9)
            << "f=" << f;
    }
}

TEST(TowThomas, BandPassOutputMatchesBiquadBp) {
    const BiquadDesign d{.f0 = 10e3, .q = 1.5, .gain = 1.0,
                         .kind = BiquadKind::low_pass};
    TowThomasCircuit ckt = build_tow_thomas(TowThomasDesign::from_biquad(d));
    ckt.netlist.get<spice::VoltageSource>("Vin").set_ac(1.0);
    spice::AcOptions opts;
    opts.f_start = 10e3;
    opts.f_stop = 10.001e3; // single point at f0
    opts.points_per_decade = 1;
    const auto res = spice::run_ac(ckt.netlist, opts);
    // At f0 the band-pass node peaks with |H_bp| = Q * (R/Rin) = Q here.
    EXPECT_NEAR(std::abs(res.voltage(ckt.bp_node, 0)), 1.5, 0.01);
}

TEST(TowThomas, F0InjectionMovesNaturalFrequency) {
    const BiquadDesign d{.f0 = 10e3, .q = 1.0, .gain = 1.0,
                         .kind = BiquadKind::low_pass};
    TowThomasCircuit ckt = build_tow_thomas(TowThomasDesign::from_biquad(d));
    ckt.inject_f0_shift(0.10);
    ckt.netlist.get<spice::VoltageSource>("Vin").set_ac(1.0);

    // Compare against a behavioural biquad with f0 shifted +10%.
    const Biquad shifted = Biquad(d).with_f0_shift(0.10);
    spice::AcOptions opts;
    opts.f_start = 1e3;
    opts.f_stop = 100e3;
    opts.points_per_decade = 10;
    const auto res = spice::run_ac(ckt.netlist, opts);
    for (std::size_t i = 0; i < res.frequencies().size(); ++i) {
        const double f = res.frequencies()[i];
        EXPECT_NEAR(std::abs(res.voltage(ckt.lp_node, i)), shifted.magnitude(f),
                    1e-3 * shifted.magnitude(f) + 1e-9);
    }
}

TEST(SallenKeyDesign, FromBiquadRealisesParameters) {
    const BiquadDesign d{.f0 = 14e3, .q = 0.9, .gain = 1.0,
                         .kind = BiquadKind::low_pass};
    const SallenKeyDesign s = SallenKeyDesign::from_biquad(d);
    EXPECT_NEAR(s.f0(), 14e3, 1.0);
    EXPECT_NEAR(s.q_factor(), 0.9, 1e-9);
}

TEST(SallenKey, AcResponseMatchesBehaviouralBiquad) {
    const BiquadDesign d{.f0 = 12e3, .q = 0.707, .gain = 1.0,
                         .kind = BiquadKind::low_pass};
    const Biquad behavioural(d);
    SallenKeyCircuit ckt = build_sallen_key(SallenKeyDesign::from_biquad(d));
    ckt.netlist.get<spice::VoltageSource>("Vin").set_ac(1.0);
    spice::AcOptions opts;
    opts.f_start = 100.0;
    opts.f_stop = 1e6;
    opts.points_per_decade = 8;
    const auto res = spice::run_ac(ckt.netlist, opts);
    for (std::size_t i = 0; i < res.frequencies().size(); ++i) {
        const double f = res.frequencies()[i];
        const double expected = behavioural.magnitude(f);
        EXPECT_NEAR(std::abs(res.voltage(ckt.lp_node, i)), expected,
                    1e-4 * expected + 1e-9)
            << "f=" << f;
    }
}

TEST(SallenKey, F0InjectionScalesCutoff) {
    const BiquadDesign d{.f0 = 10e3, .q = 0.707, .gain = 1.0,
                         .kind = BiquadKind::low_pass};
    SallenKeyCircuit ckt = build_sallen_key(SallenKeyDesign::from_biquad(d));
    ckt.inject_f0_shift(-0.10);
    const double c1 = ckt.netlist.get<spice::Capacitor>("C1").capacitance();
    EXPECT_NEAR(c1, ckt.design.c1 / 0.9, 1e-15);
}

} // namespace
} // namespace xysig::filter
