// CUT abstraction tests: behavioural fast path vs transistor... vs netlist
// transient path must agree on the observed Lissajous period.

#include "filter/cut.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "capture/fault_injection.h"
#include "core/paper_setup.h"
#include "filter/tow_thomas.h"
#include "spice/elements.h"
#include "spice/transient.h"

namespace xysig::filter {
namespace {

/// The wire's default fault universe: every bridge, then every open.
std::vector<capture::NetlistFault> default_faults(const spice::Netlist& nominal) {
    const capture::FaultUniverseOptions fopts;
    auto faults = capture::enumerate_bridging_faults(nominal, fopts);
    const auto opens = capture::enumerate_open_faults(nominal, fopts);
    faults.insert(faults.end(), opens.begin(), opens.end());
    return faults;
}

TEST(BehaviouralCut, XChannelIsTheStimulus) {
    const BehaviouralCut cut(core::paper_biquad());
    const MultitoneWaveform stim = core::paper_stimulus();
    const XyTrace tr = cut.respond(stim, 512);
    ASSERT_EQ(tr.size(), 512u);
    EXPECT_DOUBLE_EQ(tr.start_time(), 0.0);
    for (std::size_t i = 0; i < tr.size(); i += 37)
        EXPECT_NEAR(tr.x()[i], stim.value(tr.time_at(i)), 1e-12);
}

TEST(BehaviouralCut, TraceSpansOneExactPeriod) {
    const BehaviouralCut cut(core::paper_biquad());
    const MultitoneWaveform stim = core::paper_stimulus();
    const XyTrace tr = cut.respond(stim, 1000);
    EXPECT_NEAR(tr.dt() * static_cast<double>(tr.size()), stim.period(), 1e-15);
    // Periodicity: value just past the window equals the first sample.
    EXPECT_NEAR(tr.x()[0], stim.value(stim.period()), 1e-9);
}

TEST(BehaviouralCut, OutputIsFilteredStimulus) {
    const Biquad bq = core::paper_biquad();
    const BehaviouralCut cut(bq);
    const MultitoneWaveform stim = core::paper_stimulus();
    const MultitoneWaveform expected = bq.steady_state_output(stim);
    const XyTrace tr = cut.respond(stim, 256);
    for (std::size_t i = 0; i < tr.size(); i += 17)
        EXPECT_NEAR(tr.y()[i], expected.value(tr.time_at(i)), 1e-12);
}

TEST(BehaviouralCut, DescriptionMentionsParameters) {
    const BehaviouralCut cut(core::paper_biquad());
    EXPECT_NE(cut.description().find("14000"), std::string::npos);
}

TEST(SpiceCut, TowThomasMatchesBehaviouralBiquad) {
    // The central cross-validation: the netlist CUT simulated by our SPICE
    // engine must produce the same Lissajous as the exact behavioural path.
    const Biquad bq = core::paper_biquad();
    TowThomasCircuit ckt = core::paper_tow_thomas();
    SpiceCut spice_cut(ckt.netlist, ckt.input_source, ckt.input_node, ckt.lp_node,
                       /*settle_periods=*/10);
    const BehaviouralCut fast_cut(bq);

    const MultitoneWaveform stim = core::paper_stimulus();
    const std::size_t n = 512;
    const XyTrace slow = spice_cut.respond(stim, n);
    const XyTrace fast = fast_cut.respond(stim, n);

    double max_err_x = 0.0, max_err_y = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        max_err_x = std::max(max_err_x, std::abs(slow.x()[i] - fast.x()[i]));
        max_err_y = std::max(max_err_y, std::abs(slow.y()[i] - fast.y()[i]));
    }
    EXPECT_LT(max_err_x, 1e-6);  // x is the source itself
    EXPECT_LT(max_err_y, 5e-3);  // y: integration + residual settling error
}

TEST(SpiceCut, RejectsTooFewSettlePeriods) {
    TowThomasCircuit ckt = build_tow_thomas(TowThomasDesign{});
    EXPECT_THROW(SpiceCut(ckt.netlist, "Vin", "in", "lp", 0), ContractError);
}

TEST(SpiceCut, RespondIntoBitIdenticalToRespondAndRepeatable) {
    TowThomasCircuit ckt = core::paper_tow_thomas();
    const SpiceCut cut(ckt.netlist, ckt.input_source, ckt.input_node,
                       ckt.lp_node, /*settle_periods=*/2);
    const MultitoneWaveform stim = core::paper_stimulus();

    const XyTrace tr = cut.respond(stim, 256);
    std::vector<double> xs, ys;
    double dt = 0.0;
    // Twice through the scratch path: the netlist's device state must not
    // leak between evaluations.
    for (int round = 0; round < 2; ++round) {
        cut.respond_into(stim, 256, xs, ys, dt);
        ASSERT_EQ(xs.size(), 256u);
        EXPECT_EQ(dt, tr.dt());
        for (std::size_t i = 0; i < xs.size(); ++i) {
            ASSERT_EQ(xs[i], tr.x()[i]) << "round " << round << " i " << i;
            ASSERT_EQ(ys[i], tr.y()[i]) << "round " << round << " i " << i;
        }
    }
}

TEST(SpiceCut, ObservedPeriodIsTheLastPeriodOfTheFullTrajectory) {
    // The cut keeps only the period it observes, straight from the step
    // stream; it must be, bit for bit, the last period of a full recording
    // of the same run over a clone.
    constexpr std::size_t kSpp = 256;
    constexpr std::size_t kSettle = 2;
    const TowThomasCircuit ckt = core::paper_tow_thomas();
    const MultitoneWaveform stim = core::paper_stimulus();
    const capture::NetlistFault bridge = default_faults(ckt.netlist).front();
    ASSERT_EQ(bridge.kind, capture::NetlistFault::Kind::bridging);

    std::vector<spice::Netlist> circuits;
    circuits.push_back(ckt.netlist.clone());
    circuits.push_back(capture::apply_fault(ckt.netlist, bridge));
    for (spice::Netlist& nl : circuits) {
        spice::Netlist recorded = nl.clone();
        const SpiceCut cut(nl, ckt.input_source, ckt.input_node, ckt.lp_node,
                           static_cast<int>(kSettle));
        std::vector<double> xs, ys;
        double dt = 0.0;
        cut.respond_into(stim, kSpp, xs, ys, dt);

        recorded.get<spice::VoltageSource>(ckt.input_source).set_waveform(stim);
        spice::TransientOptions opts;
        opts.t_stop = static_cast<double>(kSettle + 1) * stim.period();
        opts.dt = stim.period() / static_cast<double>(kSpp);
        const spice::TransientResult full = spice::run_transient(recorded, opts);
        ASSERT_EQ(full.step_count(), (kSettle + 1) * kSpp + 1);
        EXPECT_EQ(dt, opts.dt);

        const spice::NodeId xn = recorded.find_node(ckt.input_node);
        const spice::NodeId yn = recorded.find_node(ckt.lp_node);
        const std::size_t first = kSettle * kSpp;
        ASSERT_EQ(xs.size(), kSpp);
        ASSERT_EQ(ys.size(), kSpp);
        for (std::size_t i = 0; i < kSpp; ++i) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(xs[i]),
                      std::bit_cast<std::uint64_t>(full.voltage(xn, first + i)))
                << "x sample " << i;
            ASSERT_EQ(std::bit_cast<std::uint64_t>(ys[i]),
                      std::bit_cast<std::uint64_t>(full.voltage(yn, first + i)))
                << "y sample " << i;
        }
    }
}

TEST(SpiceCut, SettlePeriodsAtIntMaxFailsAsNumericError) {
    // The capture window is computed without int overflow: a member with no
    // DC operating point under the stimulus fails as a NumericError (a NaN
    // member on the wire) however long it would have settled, not as a
    // contract violation on a wrapped-around stop time.
    const TowThomasCircuit ckt = core::paper_tow_thomas();
    const auto faults = default_faults(ckt.netlist);
    ASSERT_GT(faults.size(), 22u);
    ASSERT_EQ(faults[22].description(), "open(Rf,x1e+06)");
    spice::Netlist nl = capture::apply_fault(ckt.netlist, faults[22]);
    std::vector<double> xs, ys;
    double dt = 0.0;
    // Guard: if this member ever converged, the INT_MAX run below would step
    // through ~5e11 time points instead of failing; fail fast here instead.
    const SpiceCut short_cut(nl, ckt.input_source, ckt.input_node, ckt.lp_node,
                             /*settle_periods=*/2);
    ASSERT_THROW(
        short_cut.respond_into(core::paper_stimulus(), 256, xs, ys, dt),
        NumericError);
    const SpiceCut cut(nl, ckt.input_source, ckt.input_node, ckt.lp_node,
                       std::numeric_limits<int>::max());
    EXPECT_THROW(cut.respond_into(core::paper_stimulus(), 256, xs, ys, dt),
                 NumericError);
}

TEST(SpiceCut, OwningConstructorMatchesReferenceForm) {
    TowThomasCircuit ckt = core::paper_tow_thomas();
    const SpiceCut by_ref(ckt.netlist, ckt.input_source, ckt.input_node,
                          ckt.lp_node, /*settle_periods=*/2);
    const SpiceCut owning(
        std::make_unique<spice::Netlist>(ckt.netlist.clone()), ckt.input_source,
        ckt.input_node, ckt.lp_node, /*settle_periods=*/2);

    const MultitoneWaveform stim = core::paper_stimulus();
    const XyTrace a = by_ref.respond(stim, 256);
    const XyTrace b = owning.respond(stim, 256);
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(b.x()[i], a.x()[i]) << "i " << i;
        ASSERT_EQ(b.y()[i], a.y()[i]) << "i " << i;
    }
}

} // namespace
} // namespace xysig::filter
