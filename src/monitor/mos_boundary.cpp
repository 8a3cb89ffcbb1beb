#include "monitor/mos_boundary.h"

#include <cmath>

#include "common/contracts.h"
#include "common/strings.h"
#include "mc/mismatch.h"

namespace xysig::monitor {

double MonitorConfig::leg_gate_voltage(std::size_t leg, double x, double y) const {
    XYSIG_EXPECTS(leg < legs.size());
    switch (legs[leg].input) {
    case MonitorInput::x_axis:
        return x;
    case MonitorInput::y_axis:
        return y;
    case MonitorInput::dc:
        return legs[leg].dc_level;
    }
    return 0.0; // unreachable
}

spice::MosParams MonitorConfig::leg_device(std::size_t leg) const {
    XYSIG_EXPECTS(leg < legs.size());
    const MonitorLeg& l = legs[leg];
    spice::MosParams p = device;
    p.w = l.width;
    p.vt0 = device.vt0 + l.vt0_delta;
    p.kp = device.kp * l.kp_scale;
    return p;
}

double MonitorConfig::leg_current(std::size_t leg, double x, double y) const {
    return spice::mos_id(leg_device(leg), leg_gate_voltage(leg, x, y), vds_eval);
}

namespace {
/// Orientation reference for curves through the origin. Bit 0 is the side
/// that holds the origin (the paper's Section IV-A); a curve through it has
/// no such side, so (0.05, 0) decides instead: the point LinearBoundary uses
/// (boundary.cpp), so a straight-line approximation bank orients each line
/// the way its curve is oriented.
constexpr double kRefX = 0.05;
constexpr double kRefY = 0.0;
} // namespace

MosCurrentBoundary::MosCurrentBoundary(MonitorConfig config)
    : config_(std::move(config)), orientation_(1.0) {
    XYSIG_EXPECTS(config_.vds_eval > 0.0);
    for (const auto& leg : config_.legs)
        XYSIG_EXPECTS(leg.width > 0.0);

    double at_origin = current_difference(0.0, 0.0);
    // Subthreshold leakage never cancels exactly unless the configuration is
    // symmetric (e.g. Table I curve 6); treat tiny values as "on the curve".
    const double scale = std::abs(current_difference(0.5, 0.5)) + 1e-12;
    if (std::abs(at_origin) < 1e-9 * scale)
        at_origin = current_difference(kRefX, kRefY);
    // xylint: exact-compare(orientation needs a strictly signed probe; exact zero is the only invalid value)
    XYSIG_EXPECTS(at_origin != 0.0);
    orientation_ = (at_origin > 0.0) ? -1.0 : 1.0;
}

double MosCurrentBoundary::current_difference(double x, double y) const {
    return config_.leg_current(0, x, y) + config_.leg_current(1, x, y) -
           config_.leg_current(2, x, y) - config_.leg_current(3, x, y) +
           config_.offset_current;
}

std::string MosCurrentBoundary::fingerprint() const {
    // Every value h() depends on, exact; the display name is deliberately
    // excluded (renaming a monitor does not change its boundary). The
    // asserts trip when a field is added to MosParams or MonitorLeg so the
    // new field cannot be silently dropped from the cache key (a collision
    // would serve a stale golden with no error).
    static_assert(sizeof(spice::MosParams) ==
                      2 * sizeof(spice::MosType) + 6 * sizeof(double),
                  "MosParams changed: extend fingerprint() below");
    static_assert(sizeof(MonitorLeg) ==
                      sizeof(MonitorInput) + 4 * sizeof(double) + 4 /*pad*/,
                  "MonitorLeg changed: extend fingerprint() below");
    std::string fp = "mos{";
    for (const auto& leg : config_.legs) {
        fp += std::to_string(static_cast<int>(leg.input)) + ":" +
              format_double_exact(leg.dc_level) + ":" +
              format_double_exact(leg.width) + ":" +
              format_double_exact(leg.vt0_delta) + ":" +
              format_double_exact(leg.kp_scale) + ";";
    }
    const spice::MosParams& d = config_.device;
    fp += "dev:" + std::to_string(static_cast<int>(d.type)) + ":" +
          std::to_string(static_cast<int>(d.model)) + ":" +
          format_double_exact(d.w) + ":" + format_double_exact(d.l) + ":" +
          format_double_exact(d.vt0) + ":" + format_double_exact(d.kp) + ":" +
          format_double_exact(d.n_slope) + ":" + format_double_exact(d.lambda);
    fp += "|vds=" + format_double_exact(config_.vds_eval);
    fp += "|ioff=" + format_double_exact(config_.offset_current);
    fp += "|or=" + format_double_exact(orientation_);
    return fp + "}";
}

double MosCurrentBoundary::h(double x, double y) const {
    return orientation_ * current_difference(x, y);
}

MonitorConfig perturb_monitor(const MonitorConfig& config, Rng& rng) {
    MonitorConfig out = config;
    const mc::ProcessSample ps = mc::sample_process(rng);
    for (auto& leg : out.legs) {
        const double sigma_vt = mc::sigma_vt(leg.width, config.device.l);
        const double sigma_beta = mc::sigma_beta_rel(leg.width, config.device.l);
        leg.vt0_delta += ps.delta_vt0 + rng.normal(0.0, sigma_vt);
        leg.kp_scale *= ps.kp_scale * (1.0 + rng.normal(0.0, sigma_beta));
    }
    out.offset_current += rng.normal(0.0, mc::kSigmaOffsetCurrent);
    return out;
}

} // namespace xysig::monitor
