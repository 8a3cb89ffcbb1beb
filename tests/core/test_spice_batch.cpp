// SPICE fault universes through the batch NDF engine: enumeration of
// bridging/open universes, clone-based fault injection, and the core
// guarantee — batch evaluation is bit-identical to the serial path at any
// thread count (each cut owns its deep-cloned netlist, so workers never
// share simulation state).

#include "core/batch_ndf.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "capture/fault_injection.h"
#include "common/parallel.h"
#include "core/paper_setup.h"
#include "filter/tow_thomas.h"
#include "monitor/table1.h"
#include "spice/elements.h"

namespace xysig::core {
namespace {

SpiceObservation observation(const filter::TowThomasCircuit& ckt) {
    return {ckt.input_source, ckt.input_node, ckt.lp_node,
            /*settle_periods=*/2};
}

/// Bit-identity including NaNs (NaN != NaN under operator==, but the batch
/// guarantee is about bit patterns).
bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

SignaturePipeline make_pipeline() {
    PipelineOptions opts;
    opts.samples_per_period = 256; // keep the transient runs fast
    return SignaturePipeline(monitor::build_table1_bank(), paper_stimulus(),
                             opts);
}

/// The serial reference: each clone-per-fault cut through the allocating
/// path on this thread, outside the executor. NumericError maps to the
/// exact NaN constant the engine writes — the tests compare bit patterns,
/// and std::nan("")'s payload is not guaranteed to match on every libc.
std::vector<double> serial_reference(
    const SignaturePipeline& pipe,
    const std::vector<std::unique_ptr<filter::Cut>>& universe) {
    std::vector<double> serial;
    serial.reserve(universe.size());
    for (const auto& cut : universe) {
        try {
            serial.push_back(pipe.ndf_of(*cut));
        } catch (const NumericError&) {
            serial.push_back(std::numeric_limits<double>::quiet_NaN());
        }
    }
    return serial;
}

/// A small mixed universe: a handful of bridging faults plus every open.
std::vector<capture::NetlistFault> small_universe(const spice::Netlist& nl) {
    const capture::FaultUniverseOptions fopts;
    auto faults = capture::enumerate_bridging_faults(nl, fopts);
    faults.resize(std::min<std::size_t>(faults.size(), 6));
    const auto opens = capture::enumerate_open_faults(nl, fopts);
    faults.insert(faults.end(), opens.begin(), opens.end());
    return faults;
}

TEST(FaultEnumeration, BridgingCoversEveryNonGroundNodePair) {
    const auto ckt = paper_tow_thomas();
    const auto faults = capture::enumerate_bridging_faults(ckt.netlist);
    // n non-ground nodes -> n*(n-1)/2 unordered pairs.
    const std::size_t n = ckt.netlist.node_count() - 1;
    EXPECT_EQ(faults.size(), n * (n - 1) / 2);
    for (const auto& f : faults) {
        EXPECT_EQ(f.kind, capture::NetlistFault::Kind::bridging);
        EXPECT_NE(f.node_a, f.node_b);
        EXPECT_GT(f.value, 0.0);
    }

    capture::FaultUniverseOptions with_ground;
    with_ground.bridge_to_ground = true;
    EXPECT_EQ(capture::enumerate_bridging_faults(ckt.netlist, with_ground).size(),
              n * (n - 1) / 2 + n);
}

TEST(FaultEnumeration, OpensCoverEveryResistorAndCapacitor) {
    const auto ckt = paper_tow_thomas();
    const auto faults = capture::enumerate_open_faults(ckt.netlist);
    std::size_t rc_count = 0;
    for (const auto& dev : ckt.netlist.devices())
        if (dynamic_cast<const spice::Resistor*>(dev.get()) != nullptr ||
            dynamic_cast<const spice::Capacitor*>(dev.get()) != nullptr)
            ++rc_count;
    EXPECT_EQ(faults.size(), rc_count);
    EXPECT_GE(rc_count, 8u); // Tow-Thomas: 6 resistors + 2 capacitors
}

TEST(ApplyFault, LeavesNominalUntouchedAndInjectsIntoClone) {
    const auto ckt = paper_tow_thomas();
    const double r2_before = ckt.netlist.get<spice::Resistor>("R2").resistance();

    capture::NetlistFault open;
    open.kind = capture::NetlistFault::Kind::open;
    open.device = "R2";
    open.value = 1e6;
    const spice::Netlist faulty = capture::apply_fault(ckt.netlist, open);
    EXPECT_DOUBLE_EQ(faulty.get<spice::Resistor>("R2").resistance(),
                     r2_before * 1e6);
    EXPECT_DOUBLE_EQ(ckt.netlist.get<spice::Resistor>("R2").resistance(),
                     r2_before);

    capture::NetlistFault bridge;
    bridge.kind = capture::NetlistFault::Kind::bridging;
    bridge.node_a = "bp";
    bridge.node_b = "lp";
    bridge.value = 100.0;
    const spice::Netlist shorted = capture::apply_fault(ckt.netlist, bridge);
    EXPECT_EQ(shorted.devices().size(), ckt.netlist.devices().size() + 1);
    EXPECT_NE(shorted.try_get<spice::Resistor>("Rbridge_bp_lp"), nullptr);
    EXPECT_EQ(ckt.netlist.try_get<spice::Resistor>("Rbridge_bp_lp"), nullptr);
}

TEST(ApplyFault, OpenOnUnsupportedDeviceThrows) {
    const auto ckt = paper_tow_thomas();
    capture::NetlistFault bad;
    bad.kind = capture::NetlistFault::Kind::open;
    bad.device = "A1"; // an opamp, not an R/C
    bad.value = 1e6;
    EXPECT_THROW((void)capture::apply_fault(ckt.netlist, bad), InvalidInput);
}

TEST(SpiceBatch, BatchMatchesSerialBitIdenticallyAtAnyThreadCount) {
    const auto ckt = paper_tow_thomas();
    const auto obs = observation(ckt);
    SignaturePipeline pipe = make_pipeline();
    pipe.set_golden(filter::SpiceCut(
        std::make_unique<spice::Netlist>(ckt.netlist.clone()), obs.input_source,
        obs.x_node, obs.y_node, obs.settle_periods));

    const auto faults = small_universe(ckt.netlist);
    const auto universe =
        BatchNdfEvaluator::build_fault_universe(ckt.netlist, faults, obs);
    ASSERT_EQ(universe.size(), faults.size());

    // The strictest identity: scratch vs allocating AND serial vs parallel
    // must both hold.
    const std::vector<double> serial = serial_reference(pipe, universe);

    for (const unsigned threads : {1u, 2u, 4u}) {
        const BatchNdfEvaluator batch(pipe, {.threads = threads});
        const auto ndfs = batch.evaluate(universe);
        ASSERT_EQ(ndfs.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i)
            EXPECT_TRUE(same_bits(ndfs[i], serial[i]))
                << "fault " << faults[i].description() << " threads " << threads
                << " got " << ndfs[i] << " want " << serial[i];
    }
}

TEST(SpiceBatch, FaultUniverseOnAPoolMatchesManualUniverseAndDetects) {
    const auto ckt = paper_tow_thomas();
    const auto obs = observation(ckt);
    SignaturePipeline pipe = make_pipeline();
    pipe.set_golden(filter::SpiceCut(
        std::make_unique<spice::Netlist>(ckt.netlist.clone()), obs.input_source,
        obs.x_node, obs.y_node, obs.settle_periods));

    const auto faults = small_universe(ckt.netlist);
    const FaultUniverse universe(std::make_shared<const spice::Netlist>(ckt.netlist.clone()),
                                 faults, obs);
    ThreadPool pool(4);
    std::vector<double> ndfs(universe.size());
    const std::uint64_t clones_before = spice::Netlist::clone_count();
    (void)run_universe(universe, pipe, {&pool, 4},
                       [&](const MemberResult& r) { ndfs[r.member_id] = r.ndf; });
    // One clone per participating worker (inject/repair), not one per fault.
    EXPECT_LE(spice::Netlist::clone_count() - clones_before, 4u);

    // Clone-per-worker reuse against the clone-per-fault universe.
    const auto manual = serial_reference(
        pipe, BatchNdfEvaluator::build_fault_universe(ckt.netlist, faults, obs));
    ASSERT_EQ(ndfs.size(), manual.size());
    for (std::size_t i = 0; i < manual.size(); ++i)
        EXPECT_TRUE(same_bits(ndfs[i], manual[i]))
            << "fault " << faults[i].description();

    // Sanity on the universe shape: detectable faults exist, and the
    // pathological members (no stable solution, e.g. the open loop-feedback
    // resistor) came back as NaN instead of killing the sweep.
    bool any_detected = false;
    bool any_nan = false;
    for (const double v : ndfs) {
        any_detected = any_detected || (std::isfinite(v) && v > 0.0);
        any_nan = any_nan || std::isnan(v);
    }
    EXPECT_TRUE(any_detected);
    EXPECT_TRUE(any_nan);
}

TEST(SpiceBatch, GoldenSpiceCutHasZeroNdfAgainstItself) {
    const auto ckt = paper_tow_thomas();
    const auto obs = observation(ckt);
    SignaturePipeline pipe = make_pipeline();
    filter::SpiceCut golden(
        std::make_unique<spice::Netlist>(ckt.netlist.clone()), obs.input_source,
        obs.x_node, obs.y_node, obs.settle_periods);
    pipe.set_golden(golden);
    // Re-evaluating the very same cut must reproduce the golden exactly
    // (re-entrant transient: every run restarts from the DC operating point).
    EXPECT_DOUBLE_EQ(pipe.ndf_of(golden), 0.0);
}

} // namespace
} // namespace xysig::core
