#include "monitor/comparator_netlist.h"

#include "common/contracts.h"
#include "spice/dc.h"
#include "spice/elements.h"

namespace xysig::monitor {

namespace {
// The pMOS loads (see the header comment).
constexpr double kLoadWidth = 2e-6; ///< W of M5/M8
/// W(M6,M7) / W(M5,M8). It must stay at most 1: above 1 the cross-coupled
/// pair regenerates and the DC solution is no longer unique.
constexpr double kFeedbackRatio = 0.8;
static_assert(kFeedbackRatio > 0.0 && kFeedbackRatio <= 1.0);
constexpr double kLoadVt0 = 0.30;
constexpr double kLoadKp = 100e-6;
} // namespace

ComparatorCircuit build_comparator(const MonitorConfig& config) {
    ComparatorCircuit ckt;
    ckt.config = config;
    spice::Netlist& nl = ckt.netlist;

    const auto vdd = nl.node("vdd");
    const auto out1 = nl.node("vout1");
    const auto out2 = nl.node("vout2");

    nl.add<spice::VoltageSource>("VDD", vdd, spice::kGround, kComparatorVdd);

    // Input devices: gates driven by dedicated sources (set per plane point).
    for (int i = 0; i < 4; ++i) {
        // `"g" + std::to_string(...)` (char* + string&&) trips GCC's
        // -Wrestrict false positive at -O3; append onto an lvalue instead.
        std::string suffix = std::to_string(i + 1);
        std::string gate_name = "g";
        gate_name += suffix;
        const auto gate = nl.node(gate_name);
        nl.add<spice::VoltageSource>(ckt.v_inputs[i], gate, spice::kGround, 0.0);
        const auto drain = (i < 2) ? out1 : out2;
        std::string mos_name = "M";
        mos_name += suffix;
        nl.add<spice::Mosfet>(mos_name, drain, gate, spice::kGround,
                              config.leg_device(static_cast<std::size_t>(i)));
    }

    // pMOS loads: M5/M8 diode-connected, M6/M7 cross-coupled.
    spice::MosParams load;
    load.type = spice::MosType::pmos;
    load.model = config.device.model;
    load.l = config.device.l;
    load.vt0 = kLoadVt0;
    load.kp = kLoadKp;
    load.n_slope = config.device.n_slope;
    load.lambda = config.device.lambda;

    load.w = kLoadWidth;
    nl.add<spice::Mosfet>("M5", out1, out1, vdd, load); // diode load, left
    nl.add<spice::Mosfet>("M8", out2, out2, vdd, load); // diode load, right
    load.w = kLoadWidth * kFeedbackRatio;
    nl.add<spice::Mosfet>("M6", out1, out2, vdd, load); // cross feedback
    nl.add<spice::Mosfet>("M7", out2, out1, vdd, load);

    return ckt;
}

namespace {
void drive_inputs(ComparatorCircuit& ckt, double x, double y) {
    for (std::size_t i = 0; i < 4; ++i) {
        auto& src = ckt.netlist.get<spice::VoltageSource>(ckt.v_inputs[i]);
        src.set_waveform(DcWaveform(ckt.config.leg_gate_voltage(i, x, y)));
    }
}
} // namespace

double comparator_differential(ComparatorCircuit& ckt, double x, double y) {
    drive_inputs(ckt, x, y);
    const auto op = spice::dc_operating_point(ckt.netlist);
    return op.voltage(ckt.out_right) - op.voltage(ckt.out_left);
}

bool comparator_decision(ComparatorCircuit& ckt, double x, double y) {
    return comparator_differential(ckt, x, y) > 0.0;
}

} // namespace xysig::monitor
