#include "spice/mosfet.h"

#include "common/contracts.h"

namespace xysig::spice {

namespace {

/// nMOS-frame evaluation with derivatives; vgs/vds in the nMOS sense.
///
/// The model is source-referenced (vp = (VGS-VT0)/n), so exact drain/source
/// antisymmetry is restored by an explicit terminal swap for vds < 0:
/// id(vgs, vds) = -id(vgs - vds, -vds), hence d/dvgs = -gm_sw and
/// d/dvds = gm_sw + gds_sw. At vds = 0 both branches give id = 0 with
/// matching gm, so Newton never sees a discontinuity at the crossover.
MosEval nmos_evaluate(const MosParams& p, double vgs, double vds) {
    if (vds < 0.0) {
        const MosEval sw = nmos_evaluate(p, vgs - vds, -vds);
        return {-sw.id, -sw.gm, sw.gm + sw.gds};
    }
    const NmosDrainCurrent m = NmosDrainCurrent::at(p, vds);
    if (p.model == MosModel::ekv) {
        // F(u) = ln^2(1 + exp(u/2)) and F'(u) = ln(1 + exp(u/2)) *
        // logistic(u/2), from the softplus values id() also uses.
        const NmosDrainCurrent::EkvArgs a = m.ekv_args(vgs);
        const double sf = softplus(a.forward);
        const double sr = softplus(a.reverse);
        const double dff = sf * logistic(a.forward);
        const double dfr = sr * logistic(a.reverse);
        const double id0 = m.ekv_id0(sf, sr);
        const double phi_t = kThermalVoltage300K;
        return {id0 * m.clm, m.ispec * (dff - dfr) / (p.n_slope * phi_t) * m.clm,
                m.ispec * dfr / phi_t * m.clm + id0 * p.lambda};
    }
    const double vov = vgs - m.vt0;
    if (vov <= 0.0)
        return {}; // cut-off: ideal level-1 carries no current
    const double id0 = m.level1_id0(vov);
    if (vds < vov) // triode
        return {id0 * m.clm, m.beta * vds * m.clm,
                m.beta * (vov - vds) * m.clm + id0 * p.lambda};
    return {id0 * m.clm, m.beta * vov * m.clm, id0 * p.lambda}; // saturation
}

} // namespace

MosEval mos_evaluate(const MosParams& p, double vgs, double vds) {
    XYSIG_EXPECTS(p.w > 0.0 && p.l > 0.0);
    XYSIG_EXPECTS(p.kp > 0.0 && p.n_slope >= 1.0 && p.lambda >= 0.0);
    if (p.type == MosType::nmos)
        return nmos_evaluate(p, vgs, vds);

    // pMOS: mirror voltages into the nMOS frame (vsg, vsd) and negate the
    // terminal current. id_p(vgs,vds) = -id_n(-vgs,-vds) gives
    // d/dvgs = +gm_n, d/dvds = +gds_n evaluated at the mirrored point.
    const MosEval n = nmos_evaluate(p, -vgs, -vds);
    return {-n.id, n.gm, n.gds};
}

double mos_id(const MosParams& p, double vgs, double vds) {
    XYSIG_EXPECTS(p.w > 0.0 && p.l > 0.0);
    XYSIG_EXPECTS(p.kp > 0.0 && p.n_slope >= 1.0 && p.lambda >= 0.0);
    return MosAtDrainBias::at(p, vds).id(vgs);
}

Mosfet::Mosfet(std::string name, NodeId drain, NodeId gate, NodeId source,
               MosParams params)
    : Device(std::move(name), {drain, gate, source}), params_(params) {}

void Mosfet::stamp(StampContext& ctx) const {
    const NodeId d = nodes()[0];
    const NodeId g = nodes()[1];
    const NodeId s = nodes()[2];
    const double vgs = node_voltage(ctx.x, g) - node_voltage(ctx.x, s);
    const double vds = node_voltage(ctx.x, d) - node_voltage(ctx.x, s);
    const MosEval e = mos_evaluate(params_, vgs, vds);

    // Linearised drain current: id = gds*vds + gm*vgs + ieq,
    // flowing d -> s through the device.
    const double ieq = e.id - e.gm * vgs - e.gds * vds;
    ctx.mna->conductance(d, s, e.gds);
    ctx.mna->transconductance(d, s, g, s, e.gm);
    ctx.mna->current_into(d, -ieq);
    ctx.mna->current_into(s, ieq);
}

} // namespace xysig::spice
