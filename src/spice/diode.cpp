#include "spice/diode.h"

#include <cmath>

#include "common/math_util.h"

namespace xysig::spice {

Diode::Diode(std::string name, NodeId anode, NodeId cathode, DiodeParams params)
    : Device(std::move(name), {anode, cathode}), params_(params) {}

Diode::Eval Diode::evaluate(double vd) const {
    const double vte = params_.n_ideality * kThermalVoltage300K;
    // Linear continuation above vcrit ~ 40*vte (exp argument capped at 40).
    const double vcrit = 40.0 * vte;
    if (vd > vcrit) {
        const double ecrit = std::exp(40.0);
        const double id_crit = params_.is * (ecrit - 1.0);
        const double gd_crit = params_.is * ecrit / vte;
        return {id_crit + gd_crit * (vd - vcrit), gd_crit};
    }
    const double e = std::exp(vd / vte);
    return {params_.is * (e - 1.0), params_.is * e / vte};
}

void Diode::stamp(StampContext& ctx) const {
    const NodeId a = nodes()[0];
    const NodeId c = nodes()[1];
    const double vd = node_voltage(ctx.x, a) - node_voltage(ctx.x, c);
    const Eval e = evaluate(vd);
    const double ieq = e.id - e.gd * vd;
    ctx.mna->conductance(a, c, e.gd);
    ctx.mna->current_into(a, -ieq);
    ctx.mna->current_into(c, ieq);
}

} // namespace xysig::spice
