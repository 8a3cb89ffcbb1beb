// Transient analysis tests against closed-form step/sine responses.

#include "spice/transient.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "spice/elements.h"
#include "support/fft.h"

namespace xysig::spice {
namespace {

/// RC low-pass driven by a step via PWL (starts at 0, steps to 1 V fast).
Netlist rc_step_circuit(double r, double c) {
    Netlist nl;
    const NodeId in = nl.node("in");
    const NodeId out = nl.node("out");
    nl.add<VoltageSource>("V1", in, kGround,
                          PwlWaveform({{0.0, 0.0}, {1e-9, 1.0}}));
    nl.add<Resistor>("R1", in, out, r);
    nl.add<Capacitor>("C1", out, kGround, c);
    return nl;
}

TEST(Transient, RcStepResponseMatchesAnalytic) {
    const double r = 1e3, c = 1e-6; // tau = 1 ms
    Netlist nl = rc_step_circuit(r, c);
    TransientOptions opts;
    opts.t_stop = 5e-3;
    opts.dt = 1e-6;
    const auto res = run_transient(nl, opts);
    const double tau = r * c;
    for (double t : {0.5e-3, 1e-3, 2e-3, 4e-3}) {
        const std::size_t idx = static_cast<std::size_t>(t / opts.dt);
        const double expected = 1.0 - std::exp(-(t - 1e-9) / tau);
        EXPECT_NEAR(res.voltage(nl.find_node("out"), idx), expected, 2e-3)
            << "at t=" << t;
    }
}

TEST(Transient, BackwardEulerAlsoConverges) {
    Netlist nl = rc_step_circuit(1e3, 1e-6);
    TransientOptions opts;
    opts.t_stop = 3e-3;
    opts.dt = 5e-7;
    opts.integrator = Integrator::backward_euler;
    const auto res = run_transient(nl, opts);
    const double expected = 1.0 - std::exp(-3.0);
    EXPECT_NEAR(res.voltage(nl.find_node("out"), res.step_count() - 1), expected,
                5e-3);
}

TEST(Transient, RcSineSteadyStateGainAndPhase) {
    // First-order RC at f = fc: gain 1/sqrt(2), phase -45 deg.
    const double r = 1e3, c = 1e-9;
    const double fc = 1.0 / (kTwoPi * r * c); // ~159 kHz
    Netlist nl;
    const NodeId in = nl.node("in");
    const NodeId out = nl.node("out");
    nl.add<VoltageSource>("V1", in, kGround, SineWaveform(0.0, 1.0, fc));
    nl.add<Resistor>("R1", in, out, r);
    nl.add<Capacitor>("C1", out, kGround, c);

    TransientOptions opts;
    const double period = 1.0 / fc;
    opts.t_stop = 20.0 * period;
    opts.dt = period / 400.0;
    const auto res = run_transient(nl, opts);

    // Analyse the last 8 periods.
    const auto sig = res.signal("out");
    const auto tail = sig.slice_time(12.0 * period, 20.0 * period);
    std::vector<double> samples(tail.samples().begin(), tail.samples().end());
    const auto comp = tone_component(samples, 1.0 / tail.dt(), fc);
    EXPECT_NEAR(std::abs(comp), 1.0 / std::sqrt(2.0), 5e-3);
}

TEST(Transient, LcTankOscillatesAtResonance) {
    // Ideal LC tank with an initial condition set by a brief current kick.
    const double l = 1e-3, c = 1e-9; // f0 ~ 159 kHz
    Netlist nl;
    const NodeId top = nl.node("top");
    nl.add<Inductor>("L1", top, kGround, l);
    nl.add<Capacitor>("C1", top, kGround, c);
    // Kick: 1 mA for the first 5 us, then zero.
    nl.add<CurrentSource>("I1", kGround, top,
                          PwlWaveform({{0.0, 1e-3}, {5e-6, 1e-3}, {5.1e-6, 0.0}}));
    nl.add<Resistor>("Rbig", top, kGround, 1e9); // numerical anchor

    const double f0 = 1.0 / (kTwoPi * std::sqrt(l * c));
    TransientOptions opts;
    opts.t_stop = 100e-6;
    opts.dt = 20e-9;
    const auto res = run_transient(nl, opts);

    // Measure dominant frequency over the free-running tail.
    const auto sig = res.signal("top");
    const auto tail = sig.slice_time(10e-6, 100e-6);
    std::vector<double> samples(tail.samples().begin(), tail.samples().end());
    const auto mags = magnitude_spectrum(samples);
    std::size_t peak = 1;
    for (std::size_t k = 2; k < mags.size(); ++k)
        if (mags[k] > mags[peak])
            peak = k;
    const double fs = 1.0 / tail.dt();
    const double n_fft = static_cast<double>(next_pow2(samples.size()));
    const double f_peak = static_cast<double>(peak) * fs / n_fft;
    EXPECT_NEAR(f_peak, f0, 0.05 * f0);
}

TEST(Transient, TrapezoidalPreservesLcAmplitudeBetterThanBe) {
    const double l = 1e-3, c = 1e-9;
    auto build = [&]() {
        Netlist nl;
        const NodeId top = nl.node("top");
        nl.add<Inductor>("L1", top, kGround, l);
        nl.add<Capacitor>("C1", top, kGround, c);
        nl.add<CurrentSource>("I1", kGround, top,
                              PwlWaveform({{0.0, 1e-3}, {5e-6, 1e-3}, {5.1e-6, 0.0}}));
        nl.add<Resistor>("Rbig", top, kGround, 1e9);
        return nl;
    };
    TransientOptions opts;
    opts.t_stop = 200e-6;
    opts.dt = 50e-9;

    Netlist nl_tr = build();
    opts.integrator = Integrator::trapezoidal;
    const auto res_tr = run_transient(nl_tr, opts);
    Netlist nl_be = build();
    opts.integrator = Integrator::backward_euler;
    const auto res_be = run_transient(nl_be, opts);

    auto late_amplitude = [&](const TransientResult& res, const Netlist& nl) {
        const NodeId top = nl.find_node("top");
        double amp = 0.0;
        for (std::size_t i = res.step_count() * 3 / 4; i < res.step_count(); ++i)
            amp = std::max(amp, std::abs(res.voltage(top, i)));
        return amp;
    };
    const double amp_tr = late_amplitude(res_tr, nl_tr);
    const double amp_be = late_amplitude(res_be, nl_be);
    // BE damps numerically; TRAP should retain clearly more energy.
    EXPECT_GT(amp_tr, 2.0 * amp_be);
}

TEST(Transient, InitialConditionIsOperatingPoint) {
    // A charged divider: transient must start from the DC solution, no jump.
    Netlist nl;
    const NodeId in = nl.node("in");
    const NodeId mid = nl.node("mid");
    nl.add<VoltageSource>("V1", in, kGround, 2.0);
    nl.add<Resistor>("R1", in, mid, 1e3);
    nl.add<Resistor>("R2", mid, kGround, 1e3);
    nl.add<Capacitor>("C1", mid, kGround, 1e-9);
    TransientOptions opts;
    opts.t_stop = 10e-6;
    opts.dt = 1e-7;
    const auto res = run_transient(nl, opts);
    for (std::size_t i = 0; i < res.step_count(); ++i)
        EXPECT_NEAR(res.voltage(nl.find_node("mid"), i), 1.0, 1e-6);
}

TEST(Transient, StreamHandsOverEveryRecordedStepInOrder) {
    // run_transient records exactly what stream_transient hands over: every
    // step index once, in order, at the same time and with the same bits.
    Netlist nl = rc_step_circuit(1e3, 1e-6);
    TransientOptions opts;
    opts.t_stop = 1e-4;
    opts.dt = 1e-6;
    const TransientResult recorded = run_transient(nl, opts);
    const NodeId out = nl.find_node("out");
    std::size_t next = 0;
    const std::size_t iterations = stream_transient(
        nl, opts, [&](std::size_t step, double t, std::span<const double> x) {
            ASSERT_EQ(step, next++);
            ASSERT_LT(step, recorded.step_count());
            EXPECT_EQ(t, recorded.time()[step]);
            EXPECT_EQ(node_voltage(x, out), recorded.voltage(out, step));
        });
    EXPECT_EQ(next, 101u); // the operating point and 100 steps
    EXPECT_EQ(next, recorded.step_count());
    EXPECT_EQ(iterations, recorded.total_newton_iterations);
}

TEST(Transient, RejectsBadTimeWindow) {
    Netlist nl = rc_step_circuit(1e3, 1e-6);
    TransientOptions opts;
    opts.t_stop = 0.0;
    EXPECT_THROW((void)run_transient(nl, opts), ContractError);
}

} // namespace
} // namespace xysig::spice
