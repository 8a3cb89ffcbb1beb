#include "kernels/compiled_monitor_bank.h"

#include <cmath>
#include <vector>

#include "common/contracts.h"
#include "common/math_util.h"
#include "kernels/vecmath.h"
#include "monitor/mos_boundary.h"

namespace xysig::kernels {

namespace {
/// Overflow guard for the fast-zoning trace scan: excursions beyond this
/// (or NaN) are physically meaningless for a comparator input and force
/// the exact path.
constexpr double kMaxZoneInput = 1e300;
} // namespace

CompiledMonitorBank CompiledMonitorBank::compile(const monitor::MonitorBank& bank) {
    CompiledMonitorBank out;
    const std::size_t n = bank.size();
    out.n_monitors_ = n;

    // Dedup key: the full leg description. Identical legs across monitors
    // (Table I rows 3-6 share their X and Y input devices) evaluate once
    // per sample; reusing the value is bit-identical because the drain
    // current is a pure function of (params, vgs, vds).
    const auto intern_leg = [&out](bool x_input, double vds,
                                   const spice::MosParams& p) -> std::uint32_t {
        for (std::size_t i = 0; i < out.legs_.size(); ++i) {
            const MosLeg& have = out.legs_[i];
            if (have.x_input == x_input &&
                // xylint: exact-compare(leg dedup must be bit-exact or two monitors would alias onto one slightly-different leg)
                have.vds == vds && have.params == p)
                return static_cast<std::uint32_t>(i);
        }
        out.legs_.push_back({x_input, vds, p, spice::MosAtDrainBias::at(p, vds)});
        return static_cast<std::uint32_t>(out.legs_.size() - 1);
    };

    for (std::size_t i = 0; i < n; ++i) {
        const monitor::Boundary& b = bank.monitor(i);
        // Monitor 0 is the MSB (paper Fig. 6 order), as in MonitorBank::code.
        const unsigned mask = 1u << (n - 1 - i);

        if (const auto* lin = dynamic_cast<const monitor::LinearBoundary*>(&b)) {
            out.linear_.push_back({mask, lin->a(), lin->b(), lin->c()});
            continue;
        }
        if (const auto* mos = dynamic_cast<const monitor::MosCurrentBoundary*>(&b)) {
            const monitor::MonitorConfig& cfg = mos->config();
            MosMonitor m;
            m.mask = mask;
            m.offset_current = cfg.offset_current;
            m.orientation = mos->orientation();
            for (std::size_t leg_i = 0; leg_i < 4; ++leg_i) {
                const monitor::MonitorInput input = cfg.legs[leg_i].input;
                MosTerm& term = m.terms[leg_i];
                term.is_constant = input == monitor::MonitorInput::dc;
                if (term.is_constant)
                    term.constant = cfg.leg_current(leg_i, 0.0, 0.0); // x, y unused
                else
                    term.leg = intern_leg(input == monitor::MonitorInput::x_axis,
                                          cfg.vds_eval, cfg.leg_device(leg_i));
            }
            out.mos_.push_back(m);
            continue;
        }
        out.fallback_.push_back({mask, b.clone()});
    }
    return out;
}

CompiledMonitorBank::CompiledMonitorBank(const CompiledMonitorBank& other)
    : n_monitors_(other.n_monitors_), linear_(other.linear_), legs_(other.legs_),
      mos_(other.mos_) {
    fallback_.reserve(other.fallback_.size());
    for (const FallbackMonitor& f : other.fallback_)
        fallback_.push_back({f.mask, f.boundary->clone()});
}

CompiledMonitorBank& CompiledMonitorBank::operator=(const CompiledMonitorBank& other) {
    if (this != &other) {
        CompiledMonitorBank tmp(other);
        *this = std::move(tmp);
    }
    return *this;
}

// inline: both sample loops call this per monitor per sample, and an
// out-of-line call there costs the fast pass several percent.
inline double CompiledMonitorBank::mos_h(const MosMonitor& m,
                                         const double* leg_values,
                                         std::size_t stride) {
    const auto term = [&](const MosTerm& t) {
        return t.is_constant ? t.constant : leg_values[t.leg * stride];
    };
    // Same association as MosCurrentBoundary::current_difference:
    // (((I1 + I2) - I3) - I4) + offset, then the orientation sign.
    const double diff = term(m.terms[0]) + term(m.terms[1]) - term(m.terms[2]) -
                        term(m.terms[3]) + m.offset_current;
    return m.orientation * diff;
}

bool CompiledMonitorBank::fast_mos_codes(const double* px, const double* py,
                                         std::size_t n, unsigned* out) const {
    // Batched legs: EKV devices whose frame change is the identity, so the
    // softplus arguments are the model's own. Other legs keep the exact
    // scalar current below.
    const auto batched = [](const MosLeg& leg) {
        return leg.device.model.model == spice::MosModel::ekv &&
               !leg.device.mirror && !leg.device.negate;
    };
    bool any_batched = false;
    for (const MosLeg& leg : legs_)
        any_batched = any_batched || batched(leg);
    if (!any_batched)
        return false; // nothing to batch; the exact loop is as fast

    // One pass over the trace: the softplus arguments are bounded by the
    // peak |vgs|, so a single max-excursion scan (NaN-rejecting: the
    // negated comparison is false for NaN) proves the whole batch stays
    // inside the vecmath domain. Deterministic in the trace alone, so
    // every process takes the same path for the same job.
    double max_x = 0.0;
    double max_y = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double ax = std::fabs(px[i]);
        const double ay = std::fabs(py[i]);
        if (!(ax <= kMaxZoneInput) || !(ay <= kMaxZoneInput))
            return false;
        max_x = ax > max_x ? ax : max_x;
        max_y = ay > max_y ? ay : max_y;
    }
    for (const MosLeg& leg : legs_) {
        if (!batched(leg))
            continue;
        const spice::NmosDrainCurrent& m = leg.device.model;
        const double vgs_max = leg.x_input ? max_x : max_y;
        const double vp_max = (vgs_max + std::fabs(m.vt0)) / std::fabs(m.n_slope);
        const double arg_bound =
            0.5 * ((vp_max + std::fabs(m.vds)) / kThermalVoltage300K);
        if (!(arg_bound <= vecmath::kMaxExpArgument))
            return false;
    }

    // Per-thread scratch: one lane of n currents per unique leg (mos_h
    // reads sample i of leg u at stride n), plus the packed (forward |
    // reverse) softplus argument pair of the batched leg in flight.
    const std::size_t n_legs = legs_.size();
    thread_local std::vector<double> values;
    thread_local std::vector<double> args;
    thread_local std::vector<double> sp;
    values.resize(n_legs * n);
    args.resize(2 * n);
    sp.resize(2 * n);
    for (std::size_t u = 0; u < n_legs; ++u) {
        const MosLeg& leg = legs_[u];
        if (!batched(leg)) {
            for (std::size_t i = 0; i < n; ++i)
                values[u * n + i] = leg.value(px[i], py[i]);
            continue;
        }
        // The exact model's arguments and id0; only the softplus
        // evaluation changes.
        const spice::NmosDrainCurrent& m = leg.device.model;
        for (std::size_t i = 0; i < n; ++i) {
            const spice::NmosDrainCurrent::EkvArgs a =
                m.ekv_args(leg.x_input ? px[i] : py[i]);
            args[i] = a.forward;
            args[n + i] = a.reverse;
        }
        vecmath::softplus_batch(args.data(), sp.data(), 2 * n);
        for (std::size_t i = 0; i < n; ++i)
            values[u * n + i] = m.ekv_id0(sp[i], sp[n + i]) * m.clm;
    }

    for (std::size_t i = 0; i < n; ++i) {
        unsigned bits = 0;
        for (const MosMonitor& m : mos_)
            bits |= (mos_h(m, values.data() + i, n) > 0.0) ? m.mask : 0u;
        out[i] |= bits;
    }
    return true;
}

void CompiledMonitorBank::codes_into(std::span<const double> xs,
                                     std::span<const double> ys,
                                     std::vector<unsigned>& codes,
                                     SampleMode mode) const {
    XYSIG_EXPECTS(xs.size() == ys.size());
    XYSIG_EXPECTS(n_monitors_ > 0);
    const std::size_t n = xs.size();
    codes.assign(n, 0u);
    unsigned* const out = codes.data();
    const double* const px = xs.data();
    const double* const py = ys.data();

    for (const LinearMonitor& m : linear_) {
        const double a = m.a;
        const double b = m.b;
        const double c = m.c;
        const unsigned mask = m.mask;
#pragma omp simd
        for (std::size_t i = 0; i < n; ++i)
            out[i] |= (a * px[i] + b * py[i] + c > 0.0) ? mask : 0u;
    }

    if (!mos_.empty() && mode == SampleMode::fast_math &&
        fast_mos_codes(px, py, n, out)) {
        // EKV sub-bank handled by the batched pass above.
    } else if (!mos_.empty()) {
        // One fused pass for the whole MOS sub-bank: evaluate each unique
        // leg current once, then run every comparator off the shared
        // values.
        double leg_values_buf[16];
        std::vector<double> leg_values_heap;
        double* leg_values = leg_values_buf;
        if (legs_.size() > 16) {
            leg_values_heap.resize(legs_.size());
            leg_values = leg_values_heap.data();
        }
        const std::size_t n_legs = legs_.size();
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t u = 0; u < n_legs; ++u)
                leg_values[u] = legs_[u].value(px[i], py[i]);
            unsigned bits = 0;
            for (const MosMonitor& m : mos_)
                bits |= (mos_h(m, leg_values, 1) > 0.0) ? m.mask : 0u;
            out[i] |= bits;
        }
    }

    for (const FallbackMonitor& f : fallback_) {
        const monitor::Boundary& b = *f.boundary;
        const unsigned mask = f.mask;
        for (std::size_t i = 0; i < n; ++i)
            out[i] |= b.side(px[i], py[i]) ? mask : 0u;
    }
}

} // namespace xysig::kernels
