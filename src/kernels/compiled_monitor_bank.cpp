#include "kernels/compiled_monitor_bank.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/contracts.h"
#include "common/error.h"
#include "common/math_util.h"
#include "kernels/vecmath.h"
#include "monitor/mos_boundary.h"

namespace xysig::kernels {

namespace {
/// Overflow guard for the fast-zoning trace scan: excursions beyond this
/// (or NaN) are physically meaningless for a comparator input and force
/// the exact path.
constexpr double kMaxZoneInput = 1e300;
/// Samples per block of the MOS pass: every group's pairs for one block
/// fit in a few KiB of scratch, and a 2 * kBlock softplus_batch call keeps
/// the SIMD lanes full.
constexpr std::size_t kBlock = 256;
} // namespace

CompiledMonitorBank CompiledMonitorBank::compile(const monitor::MonitorBank& bank) {
    CompiledMonitorBank out;
    const std::size_t n = bank.size();
    out.n_monitors_ = n;

    // Group key: everything ekv_pair reads besides the gate voltage. Equal
    // keys give bitwise-equal pairs, so a group evaluates one for all its
    // legs.
    const auto intern_group = [&out](bool x_input,
                                     const spice::MosAtDrainBias& d) -> std::uint32_t {
        const spice::NmosDrainCurrent& m = d.model;
        for (std::size_t g = 0; g < out.groups_.size(); ++g) {
            const PairGroup& have = out.groups_[g];
            const spice::MosAtDrainBias& h = have.device;
            if (have.x_input != x_input || h.mirror != d.mirror || h.negate != d.negate)
                continue;
            // xylint: exact-compare(a group shares one pair between its legs, so its key must be bit-exact)
            if (h.gate_shift == d.gate_shift && h.model.vt0 == m.vt0 &&
                // xylint: exact-compare(the same bit-exact group key, continued)
                h.model.n_slope == m.n_slope && h.model.vds == m.vds)
                return static_cast<std::uint32_t>(g);
        }
        out.groups_.push_back({x_input, x_input ? out.x_groups_++ : 0u, d});
        return static_cast<std::uint32_t>(out.groups_.size() - 1);
    };

    // Dedup key: the full leg description. Identical legs across monitors
    // (Table I rows 3-6 share their X and Y input devices) evaluate once
    // per sample; reusing the value is bit-identical because the drain
    // current is a pure function of (params, vgs, vds).
    const auto intern_leg = [&out, &intern_group](bool x_input, double vds,
                                                  const spice::MosParams& p)
        -> std::uint32_t {
        for (std::size_t i = 0; i < out.legs_.size(); ++i) {
            const MosLeg& have = out.legs_[i];
            if (have.x_input == x_input &&
                // xylint: exact-compare(leg dedup must be bit-exact or two monitors would alias onto one slightly-different leg)
                have.vds == vds && have.params == p)
                return static_cast<std::uint32_t>(i);
        }
        const spice::MosAtDrainBias device = spice::MosAtDrainBias::at(p, vds);
        const std::uint32_t group = p.model == spice::MosModel::ekv
                                        ? intern_group(x_input, device)
                                        : kNoGroup;
        out.legs_.push_back({x_input, vds, p, device, group});
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
                if (term.is_constant) {
                    term.index = static_cast<std::uint32_t>(out.constants_.size());
                    out.constants_.push_back(cfg.leg_current(leg_i, 0.0, 0.0)); // x, y unused
                } else {
                    term.index = intern_leg(input == monitor::MonitorInput::x_axis,
                                            cfg.vds_eval, cfg.leg_device(leg_i));
                }
            }
            out.mos_.push_back(m);
            continue;
        }
        throw InvalidInput("CompiledMonitorBank: monitor " + std::to_string(i) +
                           " of " + std::to_string(n) +
                           " is neither a LinearBoundary nor a MosCurrentBoundary");
    }
    return out;
}

bool CompiledMonitorBank::batched(const PairGroup& g) noexcept {
    // An identity frame (no mirror, no swap), so the softplus arguments are
    // the model's own.
    return !g.device.mirror && !g.device.negate;
}

void CompiledMonitorBank::group_pairs(const PairGroup& g, const double* in,
                                      std::size_t n, SampleMode mode, double* out) {
    const spice::MosAtDrainBias d = g.device; // a local: no aliasing with out
    if (mode == SampleMode::fast_math && batched(g)) {
        // The exact model's arguments; only the softplus evaluation changes.
        for (std::size_t i = 0; i < n; ++i) {
            const spice::NmosDrainCurrent::EkvArgs a = d.ekv_args(in[i]);
            out[i] = a.forward;
            out[n + i] = a.reverse;
        }
        vecmath::softplus_batch(out, out, 2 * n);
        return;
    }
    for (std::size_t i = 0; i < n; ++i) {
        const spice::NmosDrainCurrent::EkvPair s = d.ekv_pair(in[i]);
        out[i] = s.forward;
        out[n + i] = s.reverse;
    }
}

bool CompiledMonitorBank::in_fast_domain(const double* in, std::size_t n,
                                         bool x_axis) const {
    // One pass over the input: the softplus arguments are bounded by the
    // peak |vgs|, so a max-excursion scan (NaN-rejecting: the negated
    // comparison is false for NaN) proves every batched pair stays inside
    // the vecmath domain. Deterministic in the trace alone, so every
    // process takes the same path for the same job.
    double peak = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double a = std::fabs(in[i]);
        if (!(a <= kMaxZoneInput))
            return false;
        peak = a > peak ? a : peak;
    }
    for (const PairGroup& g : groups_) {
        if (g.x_input != x_axis || !batched(g))
            continue;
        const spice::NmosDrainCurrent& m = g.device.model;
        const double vp_max = (peak + std::fabs(m.vt0)) / std::fabs(m.n_slope);
        const double arg_bound = 0.5 * ((vp_max + std::fabs(m.vds)) / kThermalVoltage300K);
        if (!(arg_bound <= vecmath::kMaxExpArgument))
            return false;
    }
    return true;
}

CompiledMonitorBank::XPairLanes CompiledMonitorBank::x_pair_lanes(
    std::shared_ptr<const std::vector<double>> xs, SampleMode mode) const {
    XYSIG_EXPECTS(xs != nullptr);
    XPairLanes lanes;
    lanes.mode = mode;
    const std::size_t n = xs->size();
    if (mode != SampleMode::fast_math || in_fast_domain(xs->data(), n, true)) {
        lanes.pairs.resize(2 * n * x_groups_);
        for (const PairGroup& g : groups_)
            if (g.x_input)
                group_pairs(g, xs->data(), n, mode, lanes.pairs.data() + 2 * n * g.x_lane);
    }
    lanes.xs = std::move(xs);
    return lanes;
}

void CompiledMonitorBank::bind_x_lanes(std::shared_ptr<const XPairLanes> lanes) {
    XYSIG_EXPECTS(lanes == nullptr ||
                  (lanes->xs != nullptr &&
                   (lanes->pairs.empty() ||
                    lanes->pairs.size() == 2 * lanes->xs->size() * x_groups_)));
    x_lanes_ = std::move(lanes);
}

const CompiledMonitorBank::XPairLanes*
CompiledMonitorBank::lanes_for(std::span<const double> xs, SampleMode mode) const {
    const XPairLanes* lanes = x_lanes_.get();
    if (lanes == nullptr || lanes->mode != mode || lanes->pairs.empty())
        return nullptr;
    const std::vector<double>& trace = *lanes->xs;
    if (trace.size() != xs.size())
        return nullptr;
    // Bitwise, not ==: lanes computed from other bits (a -0.0 for a +0.0
    // included) are never read.
    if (trace.data() != xs.data() &&
        std::memcmp(trace.data(), xs.data(), xs.size() * sizeof(double)) != 0)
        return nullptr;
    return lanes;
}

void CompiledMonitorBank::mos_codes(const double* px, const double* py, std::size_t n,
                                    SampleMode mode, const XPairLanes* lanes,
                                    unsigned* out) const {
    // Per-thread scratch in rows of kBlock samples: each group's pairs
    // (forward, then reverse), each leg's currents and each DC term's
    // constant current, so every loop below runs over contiguous rows.
    thread_local std::vector<double> pair_rows;
    thread_local std::vector<double> leg_rows;
    thread_local std::vector<double> constant_rows;
    pair_rows.resize(2 * kBlock * groups_.size());
    leg_rows.resize(kBlock * legs_.size());
    constant_rows.resize(kBlock * constants_.size());
    for (std::size_t k = 0; k < constants_.size(); ++k)
        std::fill_n(constant_rows.data() + kBlock * k, kBlock, constants_[k]);
    const auto row_of = [&](const MosTerm& t) -> const double* {
        return (t.is_constant ? constant_rows.data() : leg_rows.data()) + kBlock * t.index;
    };
    const auto laned = [&](const PairGroup& g) { return lanes != nullptr && g.x_input; };

    for (std::size_t i0 = 0; i0 < n; i0 += kBlock) {
        const std::size_t len = std::min(kBlock, n - i0);
        for (std::size_t g = 0; g < groups_.size(); ++g) {
            const PairGroup& group = groups_[g];
            if (!laned(group))
                group_pairs(group, (group.x_input ? px : py) + i0, len, mode,
                            pair_rows.data() + 2 * kBlock * g);
        }
        for (std::size_t u = 0; u < legs_.size(); ++u) {
            const MosLeg& leg = legs_[u];
            const spice::MosAtDrainBias device = leg.device; // a local: no aliasing
            double* const row = leg_rows.data() + kBlock * u;
            if (leg.group == kNoGroup) {
                const double* const in = (leg.x_input ? px : py) + i0;
                for (std::size_t j = 0; j < len; ++j)
                    row[j] = device.id(in[j]);
                continue;
            }
            const PairGroup& group = groups_[leg.group];
            const double* const sf =
                laned(group) ? lanes->pairs.data() + 2 * n * group.x_lane + i0
                             : pair_rows.data() + 2 * kBlock * leg.group;
            const double* const sr = sf + (laned(group) ? n : len);
            for (std::size_t j = 0; j < len; ++j)
                row[j] = device.ekv_id({sf[j], sr[j]});
        }
        for (const MosMonitor& m : mos_) {
            const double* const i1 = row_of(m.terms[0]);
            const double* const i2 = row_of(m.terms[1]);
            const double* const i3 = row_of(m.terms[2]);
            const double* const i4 = row_of(m.terms[3]);
            const double offset = m.offset_current;
            const double orientation = m.orientation;
            const unsigned mask = m.mask;
            unsigned* const o = out + i0;
#pragma omp simd
            for (std::size_t j = 0; j < len; ++j) {
                // Same association as MosCurrentBoundary::current_difference:
                // (((I1 + I2) - I3) - I4) + offset, then the orientation sign.
                const double diff = i1[j] + i2[j] - i3[j] - i4[j] + offset;
                o[j] |= (orientation * diff > 0.0) ? mask : 0u;
            }
        }
    }
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

    if (!mos_.empty()) {
        const XPairLanes* lanes = lanes_for(xs, mode);
        // Fast lanes exist only for an x inside the domain, so with them
        // bound only y needs the scan. A failed scan runs the exact pass,
        // which reads exact lanes only.
        if (mode == SampleMode::fast_math &&
            !((lanes != nullptr || in_fast_domain(px, n, true)) &&
              in_fast_domain(py, n, false))) {
            mode = SampleMode::exact;
            lanes = lanes_for(xs, mode);
        }
        mos_codes(px, py, n, mode, lanes, out);
    }
}

} // namespace xysig::kernels
