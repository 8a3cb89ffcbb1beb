#ifndef XYSIG_SPICE_MOSFET_H
#define XYSIG_SPICE_MOSFET_H

/// \file mosfet.h
/// MOSFET models.
///
/// Two models are provided:
///  * EKV long-channel (default): a single smooth expression covering weak,
///    moderate and strong inversion. In strong-inversion saturation it
///    reduces to the quasi-quadratic law ID ~ (kp/2n)(W/L)(VGS-VT0)^2 that
///    the paper's monitor exploits to draw nonlinear zone boundaries, and in
///    weak inversion it is exponential — which is exactly the paper's
///    explanation for the boundary-curve distortion at small input voltages
///    (Fig. 4, curve 6). Smoothness keeps Newton-Raphson robust.
///  * Level-1 (Shichman-Hodges): the classic piecewise square-law model,
///    kept as an independent cross-check of the EKV implementation.
///
/// Both are written once, in NmosDrainCurrent below; mos_evaluate(), mos_id()
/// and the compiled monitor kernels evaluate that one copy, so the monitor
/// library and the kernels share the device physics without a netlist.

#include "common/math_util.h"
#include "spice/device.h"

namespace xysig::spice {

enum class MosType { nmos, pmos };
enum class MosModel { ekv, level1 };

/// Process + geometry parameters of one transistor.
///
/// Defaults approximate a 65 nm low-Vt NMOS biased far from minimum length
/// (the paper uses L = 180 nm input devices): VT0 0.30 V, n 1.35,
/// kp 250 uA/V^2, lambda 0.1 V^-1.
struct MosParams {
    MosType type = MosType::nmos;
    MosModel model = MosModel::ekv;
    double w = 1e-6;      ///< channel width (m)
    double l = 180e-9;    ///< channel length (m)
    double vt0 = 0.30;    ///< threshold voltage magnitude (V)
    double kp = 250e-6;   ///< transconductance parameter k' = mu*Cox (A/V^2)
    double n_slope = 1.35;///< subthreshold slope factor
    double lambda = 0.1;  ///< channel-length modulation (1/V)

    [[nodiscard]] double aspect_ratio() const noexcept { return w / l; }

    /// Field-wise equality (compiler-maintained, so a new parameter can
    /// never be silently dropped from comparisons — the compiled monitor
    /// kernels rely on this to deduplicate identical legs).
    [[nodiscard]] bool operator==(const MosParams&) const noexcept = default;
};

/// Drain current and small-signal derivatives at one bias point.
struct MosEval {
    double id = 0.0;  ///< current into the drain terminal (A)
    double gm = 0.0;  ///< d id / d vgs
    double gds = 0.0; ///< d id / d vds
};

/// The drain-current model of one device in the nMOS frame (vgs, vds in
/// the nMOS sense) at a fixed forward drain bias vds >= 0, with every
/// vgs-independent quantity hoisted. This is the one copy of the
/// drain-current arithmetic: mos_evaluate (which derives gm/gds from the
/// same softplus values), mos_id (through MosAtDrainBias) and the compiled
/// monitor kernels (kernels::CompiledMonitorBank: ekv_pair, or ekv_args
/// through the fast_math softplus_batch, once per group of legs, then
/// each leg's ekv_id) all evaluate it, so they agree bit for bit by
/// construction.
///
/// EKV: id = ispec * (F(vp/phi_t) - F((vp - vds)/phi_t)) * (1 + lambda*vds)
/// with vp = (vgs - VT0)/n and F(u) = ln^2(1 + exp(u/2)). The model is
/// source-referenced, so a reverse drain bias is handled by the caller's
/// terminal swap (see MosAtDrainBias). Level-1 (Shichman-Hodges) is
/// piecewise and zero below threshold.
struct NmosDrainCurrent {
    MosModel model = MosModel::ekv;
    double vds = 0.0;
    double vt0 = 0.0;
    double n_slope = 1.0;
    double clm = 1.0;       ///< channel-length modulation 1 + lambda*vds
    double ispec = 0.0;     ///< EKV specific current 2 n kp (W/L) phi_t^2
    double beta = 0.0;      ///< level-1 kp (W/L)
    double half_beta = 0.0; ///< 0.5 * beta
    double half_vds2 = 0.0; ///< (0.5 * vds) * vds

    [[nodiscard]] static NmosDrainCurrent at(const MosParams& p, double vds) noexcept {
        constexpr double phi_t = kThermalVoltage300K;
        NmosDrainCurrent m;
        m.model = p.model;
        m.vds = vds;
        m.vt0 = p.vt0;
        m.n_slope = p.n_slope;
        m.clm = 1.0 + p.lambda * vds;
        m.ispec = 2.0 * p.n_slope * p.kp * p.aspect_ratio() * phi_t * phi_t;
        m.beta = p.kp * p.aspect_ratio();
        m.half_beta = 0.5 * m.beta;
        m.half_vds2 = 0.5 * vds * vds;
        return m;
    }

    /// EKV softplus arguments of the forward and reverse inversion charges.
    struct EkvArgs {
        double forward;
        double reverse;
    };
    [[nodiscard]] EkvArgs ekv_args(double vgs) const noexcept {
        const double vp = (vgs - vt0) / n_slope;
        return {0.5 * (vp / kThermalVoltage300K),
                0.5 * ((vp - vds) / kThermalVoltage300K)};
    }
    /// Softplus values of ekv_args(vgs), the forward and reverse terms
    /// ekv_id0 squares. They read only vt0, n_slope and vds (W and kp enter
    /// through ispec alone), so devices that agree on those three share
    /// one pair bit for bit.
    struct EkvPair {
        double forward;
        double reverse;
    };
    [[nodiscard]] EkvPair ekv_pair(double vgs) const noexcept {
        const EkvArgs a = ekv_args(vgs);
        return {softplus(a.forward), softplus(a.reverse)};
    }
    /// EKV current before channel-length modulation, from the softplus
    /// values of ekv_args().
    [[nodiscard]] double ekv_id0(double sf, double sr) const noexcept {
        return ispec * (sf * sf - sr * sr);
    }
    /// EKV drain current from its softplus pair.
    [[nodiscard]] double ekv_id(EkvPair s) const noexcept {
        return ekv_id0(s.forward, s.reverse) * clm;
    }
    /// Level-1 current before channel-length modulation; requires the
    /// overdrive vov = vgs - vt0 > 0 (triode below vds, saturation above).
    [[nodiscard]] double level1_id0(double vov) const noexcept {
        return vds < vov ? beta * (vov * vds - half_vds2) : (half_beta * vov) * vov;
    }

    /// Drain current at gate bias vgs.
    [[nodiscard]] double id(double vgs) const noexcept {
        if (model == MosModel::ekv)
            return ekv_id(ekv_pair(vgs));
        const double vov = vgs - vt0;
        return vov <= 0.0 ? 0.0 : level1_id0(vov) * clm; // cut-off: no current
    }
};

/// A device at a fixed terminal drain bias vds: the frame change into
/// NmosDrainCurrent's frame, hoisted out of the gate voltage, followed by
/// the model. A pMOS device is mirrored (vgs, vds -> -vgs, -vds) and a
/// reverse drain bias swaps drain and source (vgs, vds -> vgs - vds, -vds);
/// each step negates the terminal current. The compiled monitor kernels
/// keep one per input leg, and evaluate an EKV leg as ekv_id(ekv_pair(vgs))
/// so legs in one frame that share a pair evaluate it once.
struct MosAtDrainBias {
    bool mirror = false;     ///< pMOS: the gate voltage is negated ...
    double gate_shift = 0.0; ///< ... then this is subtracted (swap)
    bool negate = false;     ///< terminal current = -model current
    NmosDrainCurrent model{};

    [[nodiscard]] static MosAtDrainBias at(const MosParams& p, double vds) noexcept {
        MosAtDrainBias d;
        if (p.type == MosType::pmos) {
            d.mirror = true;
            d.negate = true;
            vds = -vds;
        }
        if (vds < 0.0) {
            d.gate_shift = vds;
            d.negate = !d.negate;
            vds = -vds;
        }
        d.model = NmosDrainCurrent::at(p, vds);
        return d;
    }

    /// The model's gate voltage for terminal gate voltage vgs.
    [[nodiscard]] double model_vgs(double vgs) const noexcept {
        return (mirror ? -vgs : vgs) - gate_shift;
    }
    /// Terminal drain current at gate voltage vgs.
    [[nodiscard]] double id(double vgs) const noexcept {
        return terminal(model.id(model_vgs(vgs)));
    }
    /// EKV only: the model's softplus arguments and pair at terminal gate
    /// voltage vgs, and the terminal current from that pair;
    /// ekv_id(ekv_pair(vgs)) is id(vgs) bit for bit.
    [[nodiscard]] NmosDrainCurrent::EkvArgs ekv_args(double vgs) const noexcept {
        return model.ekv_args(model_vgs(vgs));
    }
    [[nodiscard]] NmosDrainCurrent::EkvPair ekv_pair(double vgs) const noexcept {
        return model.ekv_pair(model_vgs(vgs));
    }
    [[nodiscard]] double ekv_id(NmosDrainCurrent::EkvPair s) const noexcept {
        return terminal(model.ekv_id(s));
    }
    /// Terminal drain current from the model's current.
    [[nodiscard]] double terminal(double i) const noexcept { return negate ? -i : i; }
};

/// Evaluates the drain current of a MOSFET at (vgs, vds), both measured at
/// the device terminals (for pMOS they are normally negative in conduction).
/// Works for either sign of vds (source/drain symmetry).
[[nodiscard]] MosEval mos_evaluate(const MosParams& p, double vgs, double vds);

/// Drain current only: MosAtDrainBias::at(p, vds).id(vgs), bit-identical
/// to mos_evaluate(p, vgs, vds).id but skipping the gm/gds arithmetic (no
/// logistic in the EKV model). tests/kernels pins the bitwise equality
/// over both models, both device types and both drain-bias signs.
[[nodiscard]] double mos_id(const MosParams& p, double vgs, double vds);

/// Three-terminal MOSFET device (bulk tied to source; the monitor circuit
/// operates all input devices source-grounded, so body effect is not
/// exercised by this project's circuits).
class Mosfet final : public Device {
public:
    /// Node order: drain, gate, source.
    Mosfet(std::string name, NodeId drain, NodeId gate, NodeId source,
           MosParams params);

    [[nodiscard]] std::unique_ptr<Device> clone() const override {
        return std::make_unique<Mosfet>(*this);
    }

    void stamp(StampContext& ctx) const override;

    [[nodiscard]] const MosParams& params() const noexcept { return params_; }

private:
    MosParams params_;
};

} // namespace xysig::spice

#endif // XYSIG_SPICE_MOSFET_H
