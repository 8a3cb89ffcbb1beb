#include "spice/elements.h"

#include <cmath>

#include "common/contracts.h"

namespace xysig::spice {

// ---------------------------------------------------------------- Resistor

Resistor::Resistor(std::string name, NodeId n1, NodeId n2, double resistance)
    : Device(std::move(name), {n1, n2}), resistance_(resistance) {
    XYSIG_EXPECTS(resistance > 0.0);
}

std::unique_ptr<Device> Resistor::clone() const {
    return std::make_unique<Resistor>(*this);
}

void Resistor::set_resistance(double r) {
    XYSIG_EXPECTS(r > 0.0);
    resistance_ = r;
}

void Resistor::stamp(StampContext& ctx) const {
    ctx.mna->conductance(nodes()[0], nodes()[1], 1.0 / resistance_);
}

// --------------------------------------------------------------- Capacitor

Capacitor::Capacitor(std::string name, NodeId n1, NodeId n2, double capacitance)
    : Device(std::move(name), {n1, n2}), capacitance_(capacitance) {
    XYSIG_EXPECTS(capacitance > 0.0);
}

std::unique_ptr<Device> Capacitor::clone() const {
    return std::make_unique<Capacitor>(*this);
}

void Capacitor::set_capacitance(double c) {
    XYSIG_EXPECTS(c > 0.0);
    capacitance_ = c;
}

void Capacitor::stamp(StampContext& ctx) const {
    if (ctx.dt <= 0.0)
        return; // open circuit in DC
    // Companion: i(t+h) = geq * v(t+h) - ieq
    double geq = 0.0;
    double ieq = 0.0;
    if (ctx.integrator == Integrator::trapezoidal) {
        geq = 2.0 * capacitance_ / ctx.dt;
        ieq = geq * v_prev_ + i_prev_;
    } else {
        geq = capacitance_ / ctx.dt;
        ieq = geq * v_prev_;
    }
    ctx.mna->conductance(nodes()[0], nodes()[1], geq);
    ctx.mna->current_into(nodes()[0], ieq);
    ctx.mna->current_into(nodes()[1], -ieq);
}

void Capacitor::stamp_ac(AcStampContext& ctx) const {
    ctx.mna->conductance(nodes()[0], nodes()[1], {0.0, ctx.omega * capacitance_});
}

void Capacitor::begin_transient(std::span<const double> op_solution) {
    v_prev_ = node_voltage(op_solution, nodes()[0]) -
              node_voltage(op_solution, nodes()[1]);
    i_prev_ = 0.0; // steady state at the operating point
}

void Capacitor::step_accepted(std::span<const double> x, double /*time*/, double dt,
                              Integrator integrator) {
    const double v_now = node_voltage(x, nodes()[0]) - node_voltage(x, nodes()[1]);
    if (integrator == Integrator::trapezoidal)
        i_prev_ = (2.0 * capacitance_ / dt) * (v_now - v_prev_) - i_prev_;
    else
        i_prev_ = (capacitance_ / dt) * (v_now - v_prev_);
    v_prev_ = v_now;
}

// ---------------------------------------------------------------- Inductor

Inductor::Inductor(std::string name, NodeId n1, NodeId n2, double inductance)
    : Device(std::move(name), {n1, n2}), inductance_(inductance) {
    XYSIG_EXPECTS(inductance > 0.0);
}

std::unique_ptr<Device> Inductor::clone() const {
    return std::make_unique<Inductor>(*this);
}

void Inductor::stamp(StampContext& ctx) const {
    const int br = extra_base();
    XYSIG_ASSERT(br >= 0);
    // Branch current enters at node 1, leaves at node 2.
    ctx.mna->entry_node_raw(nodes()[0], br, 1.0);
    ctx.mna->entry_node_raw(nodes()[1], br, -1.0);
    ctx.mna->entry_raw_node(br, nodes()[0], 1.0);
    ctx.mna->entry_raw_node(br, nodes()[1], -1.0);
    if (ctx.dt <= 0.0) {
        // v = 0 (short); the 1/-1 row entries above already express v - 0 = 0.
        return;
    }
    // v = L di/dt. Trapezoidal: v_{n+1} + v_n = (2L/h)(i_{n+1} - i_n)
    //  -> v_{n+1} - (2L/h) i_{n+1} = -v_n - (2L/h) i_n
    if (ctx.integrator == Integrator::trapezoidal) {
        const double req = 2.0 * inductance_ / ctx.dt;
        ctx.mna->entry_raw(br, br, -req);
        ctx.mna->rhs_raw(br, -v_prev_ - req * i_prev_);
    } else {
        const double req = inductance_ / ctx.dt;
        ctx.mna->entry_raw(br, br, -req);
        ctx.mna->rhs_raw(br, -req * i_prev_);
    }
}

void Inductor::stamp_ac(AcStampContext& ctx) const {
    // The incidence entries are stamp()'s; AC adds v = j*omega*L*i.
    ctx.mna->entry_raw(extra_base(), extra_base(), {0.0, -ctx.omega * inductance_});
}

void Inductor::begin_transient(std::span<const double> op_solution) {
    i_prev_ = op_solution[static_cast<std::size_t>(extra_base())];
    v_prev_ = 0.0;
}

void Inductor::step_accepted(std::span<const double> x, double /*time*/, double /*dt*/,
                             Integrator /*integrator*/) {
    i_prev_ = x[static_cast<std::size_t>(extra_base())];
    v_prev_ = node_voltage(x, nodes()[0]) - node_voltage(x, nodes()[1]);
}

// ------------------------------------------------------------ VoltageSource

VoltageSource::VoltageSource(std::string name, NodeId np, NodeId nn,
                             const Waveform& wave)
    : Device(std::move(name), {np, nn}), wave_(wave.clone()) {}

VoltageSource::VoltageSource(std::string name, NodeId np, NodeId nn, double dc_level)
    : Device(std::move(name), {np, nn}),
      wave_(std::make_unique<DcWaveform>(dc_level)) {}

VoltageSource::VoltageSource(const VoltageSource& other)
    : Device(other), wave_(other.wave_->clone()),
      ac_magnitude_(other.ac_magnitude_), ac_phase_(other.ac_phase_) {}

std::unique_ptr<Device> VoltageSource::clone() const {
    return std::make_unique<VoltageSource>(*this);
}

void VoltageSource::set_waveform(const Waveform& wave) { wave_ = wave.clone(); }

void VoltageSource::set_ac(double magnitude, double phase_rad) noexcept {
    ac_magnitude_ = magnitude;
    ac_phase_ = phase_rad;
}

double VoltageSource::current(std::span<const double> x) const {
    XYSIG_EXPECTS(extra_base() >= 0);
    return x[static_cast<std::size_t>(extra_base())];
}

void VoltageSource::stamp(StampContext& ctx) const {
    const int br = extra_base();
    XYSIG_ASSERT(br >= 0);
    ctx.mna->entry_node_raw(nodes()[0], br, 1.0);
    ctx.mna->entry_node_raw(nodes()[1], br, -1.0);
    ctx.mna->entry_raw_node(br, nodes()[0], 1.0);
    ctx.mna->entry_raw_node(br, nodes()[1], -1.0);
    ctx.mna->rhs_raw(br, ctx.source_scale * wave_->value(ctx.time));
}

void VoltageSource::stamp_ac(AcStampContext& ctx) const {
    // The incidence entries are stamp()'s; AC drives the branch with the
    // phasor alone.
    ctx.mna->rhs_raw(extra_base(), std::polar(ac_magnitude_, ac_phase_));
}

// ------------------------------------------------------------ CurrentSource

CurrentSource::CurrentSource(std::string name, NodeId np, NodeId nn,
                             const Waveform& wave)
    : Device(std::move(name), {np, nn}), wave_(wave.clone()) {}

CurrentSource::CurrentSource(std::string name, NodeId np, NodeId nn, double dc_level)
    : Device(std::move(name), {np, nn}),
      wave_(std::make_unique<DcWaveform>(dc_level)) {}

CurrentSource::CurrentSource(const CurrentSource& other)
    : Device(other), wave_(other.wave_->clone()) {}

std::unique_ptr<Device> CurrentSource::clone() const {
    return std::make_unique<CurrentSource>(*this);
}

void CurrentSource::stamp(StampContext& ctx) const {
    const double i = ctx.source_scale * wave_->value(ctx.time);
    // Positive current flows n+ -> n- through the source: it leaves the
    // circuit at n+ and re-enters at n-.
    ctx.mna->current_into(nodes()[0], -i);
    ctx.mna->current_into(nodes()[1], i);
}

// ------------------------------------------------------------------- Vcvs

Vcvs::Vcvs(std::string name, NodeId p, NodeId n, NodeId cp, NodeId cn, double gain)
    : Device(std::move(name), {p, n, cp, cn}), gain_(gain) {}

std::unique_ptr<Device> Vcvs::clone() const {
    return std::make_unique<Vcvs>(*this);
}

void Vcvs::stamp(StampContext& ctx) const {
    const int br = extra_base();
    XYSIG_ASSERT(br >= 0);
    ctx.mna->entry_node_raw(nodes()[0], br, 1.0);
    ctx.mna->entry_node_raw(nodes()[1], br, -1.0);
    // v(p) - v(n) - gain*(v(cp) - v(cn)) = 0
    ctx.mna->entry_raw_node(br, nodes()[0], 1.0);
    ctx.mna->entry_raw_node(br, nodes()[1], -1.0);
    ctx.mna->entry_raw_node(br, nodes()[2], -gain_);
    ctx.mna->entry_raw_node(br, nodes()[3], gain_);
}

// ------------------------------------------------------------------- Vccs

Vccs::Vccs(std::string name, NodeId p, NodeId n, NodeId cp, NodeId cn, double gm)
    : Device(std::move(name), {p, n, cp, cn}), gm_(gm) {}

std::unique_ptr<Device> Vccs::clone() const {
    return std::make_unique<Vccs>(*this);
}

void Vccs::stamp(StampContext& ctx) const {
    ctx.mna->transconductance(nodes()[0], nodes()[1], nodes()[2], nodes()[3], gm_);
}

// ------------------------------------------------------------- IdealOpamp

IdealOpamp::IdealOpamp(std::string name, NodeId inp, NodeId inn, NodeId out)
    : Device(std::move(name), {inp, inn, out}) {}

std::unique_ptr<Device> IdealOpamp::clone() const {
    return std::make_unique<IdealOpamp>(*this);
}

void IdealOpamp::stamp(StampContext& ctx) const {
    const int br = extra_base();
    XYSIG_ASSERT(br >= 0);
    // Row: virtual short, v(inp) - v(inn) = 0.
    ctx.mna->entry_raw_node(br, nodes()[0], 1.0);
    ctx.mna->entry_raw_node(br, nodes()[1], -1.0);
    // Column: the output current is whatever satisfies the constraint.
    ctx.mna->entry_node_raw(nodes()[2], br, 1.0);
}

} // namespace xysig::spice
