// Transient analysis tests against closed-form step/sine responses.

#include "spice/transient.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "capture/fault_injection.h"
#include "common/math_util.h"
#include "common/matrix.h"
#include "core/paper_setup.h"
#include "filter/tow_thomas.h"
#include "spice/diode.h"
#include "spice/elements.h"
#include "spice/mosfet.h"
#include "support/fft.h"
#include "support/reference_transient.h"

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

/// The samples of `node` at steps [first, end) of a run.
std::vector<double> steps_of(const TransientResult& res, const std::string& node,
                             std::size_t first, std::size_t end) {
    const std::vector<double> trace = res.voltage_trace(node);
    return {trace.begin() + static_cast<std::ptrdiff_t>(first),
            trace.begin() + static_cast<std::ptrdiff_t>(end)};
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
    const std::vector<double> samples = steps_of(res, "out", 12 * 400, 20 * 400);
    const auto comp = tone_component(samples, 1.0 / opts.dt, fc);
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

    // Measure dominant frequency over the free-running tail (10 to 100 us).
    const std::vector<double> samples = steps_of(res, "top", 500, 5000);
    const auto mags = magnitude_spectrum(samples);
    std::size_t peak = 1;
    for (std::size_t k = 2; k < mags.size(); ++k)
        if (mags[k] > mags[peak])
            peak = k;
    const double fs = 1.0 / opts.dt;
    const double n_fft = static_cast<double>(next_pow2(samples.size()));
    const double f_peak = static_cast<double>(peak) * fs / n_fft;
    EXPECT_NEAR(f_peak, f0, 0.05 * f0);
}

TEST(Transient, TrapezoidalPreservesLcAmplitude) {
    // The trapezoidal rule adds no numerical damping: a lossless tank (only
    // a 1 GOhm anchor) keeps its swing from the second quarter of the run to
    // the last. Backward Euler, used for the first step only, would lose
    // most of it over these 4000 steps.
    const double l = 1e-3, c = 1e-9;
    Netlist nl;
    const NodeId top = nl.node("top");
    nl.add<Inductor>("L1", top, kGround, l);
    nl.add<Capacitor>("C1", top, kGround, c);
    nl.add<CurrentSource>("I1", kGround, top,
                          PwlWaveform({{0.0, 1e-3}, {5e-6, 1e-3}, {5.1e-6, 0.0}}));
    nl.add<Resistor>("Rbig", top, kGround, 1e9);
    TransientOptions opts;
    opts.t_stop = 200e-6;
    opts.dt = 50e-9;
    const auto res = run_transient(nl, opts);

    const std::size_t n = res.step_count();
    const auto peak = [&](std::size_t begin, std::size_t end) {
        double amp = 0.0;
        for (std::size_t i = begin; i < end; ++i)
            amp = std::max(amp, std::abs(res.voltage(top, i)));
        return amp;
    };
    EXPECT_GT(peak(n * 3 / 4, n), 0.999 * peak(n / 4, n / 2));
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
    const TransientCounts counts = stream_transient(
        nl, opts, [&](std::size_t step, double t, std::span<const double> x) {
            ASSERT_EQ(step, next++);
            ASSERT_LT(step, recorded.step_count());
            EXPECT_EQ(t, recorded.time()[step]);
            EXPECT_EQ(node_voltage(x, out), recorded.voltage(out, step));
        });
    EXPECT_EQ(next, 101u); // the operating point and 100 steps
    EXPECT_EQ(next, recorded.step_count());
    EXPECT_EQ(counts.newton_iterations, recorded.total_newton_iterations);
    EXPECT_EQ(counts.lu_factorisations, recorded.lu_factorisations);
}

TEST(Transient, RejectsBadTimeWindow) {
    Netlist nl = rc_step_circuit(1e3, 1e-6);
    TransientOptions opts;
    opts.t_stop = 0.0;
    EXPECT_THROW((void)run_transient(nl, opts), ContractError);
}

/// The paper's Tow-Thomas biquad driven by the paper stimulus.
filter::TowThomasCircuit tow_thomas() {
    filter::TowThomasCircuit ckt = core::paper_tow_thomas();
    ckt.netlist.get<VoltageSource>(ckt.input_source)
        .set_waveform(core::paper_stimulus());
    return ckt;
}

/// SpiceCut's transient window: settle_periods periods, then the one it reads.
TransientOptions window(std::size_t samples_per_period, int settle_periods) {
    const double period = core::paper_stimulus().period();
    TransientOptions opts;
    opts.t_stop = (settle_periods + 1) * period;
    opts.dt = period / static_cast<double>(samples_per_period);
    return opts;
}

TEST(MnaReuse, LinearTowThomasFactorisesOncePerDistinctMatrix) {
    // Linear circuit: one matrix for the operating point, one for the
    // backward-Euler first step and one for every trapezoidal step after it.
    const filter::TowThomasCircuit ckt = tow_thomas();
    const TransientResult res = run_transient(ckt.netlist, window(512, 2));
    ASSERT_EQ(res.step_count(), 3u * 512u + 1u);
    EXPECT_EQ(res.lu_factorisations, 3u);
    EXPECT_EQ(res.total_newton_iterations, 2u * (res.step_count() - 1));
}

TEST(MnaReuse, NonlinearDevicesFactoriseEveryNewtonIteration) {
    // A forward-biased diode and a MOSFET in saturation restamp a different
    // matrix at every iterate, so no factorisation is reused.
    Netlist diode;
    const NodeId in = diode.node("in");
    const NodeId a = diode.node("a");
    diode.add<VoltageSource>("V1", in, kGround, 5.0);
    diode.add<Resistor>("R1", in, a, 1e3);
    diode.add<Diode>("D1", a, kGround);
    const OperatingPoint diode_op = dc_operating_point(diode);
    EXPECT_GT(diode_op.newton_iterations, 2);
    EXPECT_EQ(diode_op.lu_factorisations,
              static_cast<std::size_t>(diode_op.newton_iterations));

    Netlist mos;
    const NodeId vdd = mos.node("vdd");
    const NodeId g = mos.node("g");
    const NodeId d = mos.node("d");
    mos.add<VoltageSource>("VDD", vdd, kGround, 1.2);
    mos.add<VoltageSource>("VG", g, kGround, 0.6);
    mos.add<Resistor>("RD", vdd, d, 10e3);
    MosParams p;
    p.w = 1.8e-6;
    p.l = 180e-9;
    mos.add<Mosfet>("M1", d, g, kGround, p);
    const OperatingPoint mos_op = dc_operating_point(mos);
    EXPECT_GT(mos_op.newton_iterations, 2);
    EXPECT_EQ(mos_op.lu_factorisations,
              static_cast<std::size_t>(mos_op.newton_iterations));
}

TEST(MnaReuse, SignedZerosAreDifferentMatrices) {
    // [[1, z], [0, 2]] x = [-0, 1]: back substitution gives
    // x0 = -0 - z * 0.5, which is -0 for z = +0 and +0 for z = -0. The two
    // matrices compare equal under ==, so only a bitwise guard keeps the
    // second system from reusing the first one's factors and solution.
    MnaWorkspace ws(2);
    const auto solve = [&ws](double z) {
        ws.clear();
        ws.matrix()(0, 0) = 1.0;
        ws.matrix()(0, 1) = z;
        ws.matrix()(1, 1) = 2.0;
        ws.rhs() = {-0.0, 1.0};
        const Matrix<double> a = ws.matrix();
        EXPECT_TRUE(ws.solve());
        const std::vector<double> expected = solve_linear_system(a, ws.rhs());
        EXPECT_EQ(std::bit_cast<std::uint64_t>(ws.solution()[0]),
                  std::bit_cast<std::uint64_t>(expected[0]));
        EXPECT_EQ(ws.solution()[1], expected[1]);
        return std::signbit(ws.solution()[0]);
    };
    EXPECT_TRUE(solve(+0.0));
    EXPECT_EQ(ws.lu_factorisations(), 1u);
    EXPECT_FALSE(solve(-0.0));
    EXPECT_EQ(ws.lu_factorisations(), 2u);
    EXPECT_FALSE(solve(-0.0)); // the same bits again: factors reused
    EXPECT_EQ(ws.lu_factorisations(), 2u);
    EXPECT_TRUE(solve(+0.0));
    EXPECT_EQ(ws.lu_factorisations(), 3u);
}

TEST(MnaReuse, SingularMatrixFailsAndDropsTheFactors) {
    MnaWorkspace ws(2);
    ws.clear();
    ws.matrix()(0, 0) = 1.0;
    ws.rhs() = {1.0, 1.0};
    EXPECT_FALSE(ws.solve());
    EXPECT_FALSE(ws.solve()); // no factors were kept to reuse
    EXPECT_EQ(ws.lu_factorisations(), 2u);
    ws.matrix()(1, 1) = 4.0;
    ASSERT_TRUE(ws.solve());
    EXPECT_EQ(ws.solution()[0], 1.0);
    EXPECT_EQ(ws.solution()[1], 0.25);
}

/// Every step a transient engine hands over, and how the run ended.
struct RecordedRun {
    std::vector<double> time;
    std::vector<double> unknowns; ///< one row per step
    std::string error;            ///< the NumericError text, if the run threw
};

template <typename Engine>
RecordedRun record(const Netlist& nl, const TransientOptions& opts, Engine engine) {
    RecordedRun run;
    try {
        (void)engine(nl, opts, [&run](std::size_t, double t, std::span<const double> x) {
            run.time.push_back(t);
            run.unknowns.insert(run.unknowns.end(), x.begin(), x.end());
        });
    } catch (const NumericError& e) {
        run.error = e.what();
    }
    return run;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(MnaReuse, EveryUniverseMemberMatchesTheRefactorisingReferenceBitForBit) {
    // The nominal Tow-Thomas and all 29 bridging and open faults, at
    // spp 256 and one settling period: every accepted step's unknowns, and
    // where a member fails, the step and the message it fails with.
    const filter::TowThomasCircuit ckt = tow_thomas();
    const capture::FaultUniverseOptions fopts;
    auto faults = capture::enumerate_bridging_faults(ckt.netlist, fopts);
    const auto opens = capture::enumerate_open_faults(ckt.netlist, fopts);
    faults.insert(faults.end(), opens.begin(), opens.end());
    ASSERT_EQ(faults.size(), 29u);

    const TransientOptions opts = window(256, 1);
    std::size_t failed = 0;
    for (std::size_t m = 0; m <= faults.size(); ++m) {
        SCOPED_TRACE(m == 0 ? std::string("nominal") : faults[m - 1].description());
        const auto member = [&] {
            return m == 0 ? ckt.netlist.clone()
                          : capture::apply_fault(ckt.netlist, faults[m - 1]);
        };
        const Netlist for_reference = member();
        const Netlist for_engine = member();
        const RecordedRun reference = record(for_reference, opts, reference_stream_transient);
        const RecordedRun engine = record(for_engine, opts, stream_transient);
        EXPECT_EQ(engine.error, reference.error);
        EXPECT_EQ(engine.time.size(), reference.time.size());
        EXPECT_TRUE(same_bits(engine.time, reference.time));
        EXPECT_TRUE(same_bits(engine.unknowns, reference.unknowns));
        if (!reference.error.empty())
            ++failed;
    }
    EXPECT_GT(failed, 0u); // the failure paths were compared too
}

} // namespace
} // namespace xysig::spice
