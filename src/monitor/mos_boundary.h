#ifndef XYSIG_MONITOR_MOS_BOUNDARY_H
#define XYSIG_MONITOR_MOS_BOUNDARY_H

/// \file mos_boundary.h
/// The paper's monitor (Fig. 2): a four-input CMOS current comparator whose
/// decision boundary is the locus where the summed drain currents of the
/// left pair (M1, M2) equal those of the right pair (M3, M4). Inputs are the
/// observed signals (X or Y axis) or DC bias levels; curve shape and
/// location are set by the input assignment and the transistor widths
/// (Table I).
///
/// The boundary function is evaluated in closed form from the shared MOSFET
/// model (drains held at a saturation bias, matched loads), which the
/// transistor-level netlist of comparator_netlist.h cross-validates.

#include <array>
#include <string>

#include "common/rng.h"
#include "monitor/boundary.h"
#include "spice/mosfet.h"

namespace xysig::monitor {

/// What a monitor input transistor's gate is connected to.
enum class MonitorInput { x_axis, y_axis, dc };

/// One input transistor (one of M1..M4).
struct MonitorLeg {
    MonitorInput input = MonitorInput::dc;
    double dc_level = 0.0; ///< used when input == dc (volts)
    double width = 1.8e-6; ///< channel width (m)
    /// Monte-Carlo perturbations (identity by default).
    double vt0_delta = 0.0;
    double kp_scale = 1.0;
};

/// Full configuration of one monitor.
struct MonitorConfig {
    std::string name = "monitor";
    /// legs[0..1] = M1, M2 (left pair); legs[2..3] = M3, M4 (right pair).
    std::array<MonitorLeg, 4> legs{};
    /// Device template: vt0/kp/n/lambda and L are taken from here; W comes
    /// from each leg.
    spice::MosParams device{};
    /// Drain bias at which leg currents are evaluated (the matched-load
    /// comparator holds both sides near this in the decision region).
    double vds_eval = 0.6;
    /// Comparator offset referred to the current comparison (A): load
    /// mismatch and junction leakage add a constant to I_left - I_right.
    /// Negligible against strong-inversion input currents but dominant when
    /// all inputs sit below threshold — the physical origin of the paper's
    /// observed curve distortion at small input voltages (Fig. 4, curve 6).
    double offset_current = 0.0;

    /// Gate voltage of a leg for a plane point.
    [[nodiscard]] double leg_gate_voltage(std::size_t leg, double x, double y) const;
    /// The device of a leg: the template with the leg's width and
    /// Monte-Carlo perturbations merged in (the one per-leg merge; the
    /// compiled kernels and the transistor-level netlist build from it).
    [[nodiscard]] spice::MosParams leg_device(std::size_t leg) const;
    /// Drain current of a leg for a plane point.
    [[nodiscard]] double leg_current(std::size_t leg, double x, double y) const;
};

/// Current-comparison boundary: h ~ (I1 + I2) - (I3 + I4), sign-normalised
/// so the origin side is negative.
class MosCurrentBoundary final : public Boundary {
public:
    explicit MosCurrentBoundary(MonitorConfig config);

    [[nodiscard]] double h(double x, double y) const override;
    [[nodiscard]] std::unique_ptr<Boundary> clone() const override {
        return std::make_unique<MosCurrentBoundary>(*this);
    }
    [[nodiscard]] std::string fingerprint() const override;

    /// Unoriented current difference (I_left - I_right) in amperes.
    [[nodiscard]] double current_difference(double x, double y) const;
    /// +1 when h = current_difference, -1 when flipped at construction.
    [[nodiscard]] double orientation() const noexcept { return orientation_; }
    [[nodiscard]] const MonitorConfig& config() const noexcept { return config_; }

private:
    MonitorConfig config_;
    double orientation_;
};

/// Applies one Monte-Carlo draw of global process variation plus per-leg
/// Pelgrom mismatch and a comparator offset current (the mc/mismatch.h
/// models) to a monitor configuration.
[[nodiscard]] MonitorConfig perturb_monitor(const MonitorConfig& config, Rng& rng);

} // namespace xysig::monitor

#endif // XYSIG_MONITOR_MOS_BOUNDARY_H
