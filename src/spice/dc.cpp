#include "spice/dc.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/contracts.h"

namespace xysig::spice {

OperatingPoint::OperatingPoint(const Netlist& nl, std::vector<double> x)
    : netlist_(&nl), x_(std::move(x)) {}

double OperatingPoint::voltage(NodeId node) const {
    XYSIG_EXPECTS(static_cast<std::size_t>(node) <= x_.size());
    return node_voltage(unknowns(), node);
}

double OperatingPoint::voltage(const std::string& node_name) const {
    return voltage(netlist_->find_node(node_name));
}

namespace {

/// Bitwise equality of two runs of doubles.
bool same_bits(const double* a, const double* b, std::size_t count) {
    return count == 0 || std::memcmp(a, b, count * sizeof(double)) == 0;
}

// The Newton solve and the convergence ladder (see dc.h).
constexpr int kMaxNewtonIterations = 200;
constexpr double kAbsTol = 1e-9;  ///< volts or amperes
constexpr double kRelTol = 1e-6;  ///< per unknown: |delta| <= kAbsTol + kRelTol * |x|
constexpr double kMaxStep = 0.5;  ///< volts: keeps the exponential models in range
constexpr double kGminSteppingStart = 1e-3;
constexpr int kSourceSteps = 10;

} // namespace

MnaWorkspace::MnaWorkspace(std::size_t unknowns)
    : a_(unknowns, unknowns), b_(unknowns, 0.0), factored_(unknowns, unknowns),
      lu_(unknowns, unknowns), perm_(unknowns), solved_b_(unknowns, 0.0),
      x_(unknowns, 0.0) {}

void MnaWorkspace::clear() {
    a_.fill(0.0);
    std::fill(b_.begin(), b_.end(), 0.0);
}

bool MnaWorkspace::solve() {
    const std::size_t n = x_.size();
    XYSIG_EXPECTS(a_.rows() == n && a_.cols() == n && b_.size() == n);
    // Bitwise, not ==: -0.0 == +0.0, yet the factors are a function of the bits.
    if (!have_lu_ || !same_bits(a_.data(), factored_.data(), n * n)) {
        have_lu_ = false;
        std::copy_n(a_.data(), n * n, factored_.data());
        std::copy_n(a_.data(), n * n, lu_.data());
        ++lu_factorisations_;
        if (lu_factor_in_place(lu_, perm_))
            return false;
        have_lu_ = true;
    } else if (same_bits(b_.data(), solved_b_.data(), n)) {
        return true; // the same system as last time: x_ already solves it
    }
    solve_into(lu_, perm_, std::span<const double>(b_), std::span<double>(x_));
    std::copy(b_.begin(), b_.end(), solved_b_.begin());
    return true;
}

namespace detail {

void stamp_system(const Netlist& nl, MnaWorkspace& ws, StampContext at, double gmin) {
    ws.clear();
    Matrix<double>& a = ws.matrix();
    RealAssembler mna(a, ws.rhs(), nl.node_count());
    at.mna = &mna;
    for (const auto& dev : nl.devices())
        dev->stamp(at);
    const std::size_t n_node_vars = nl.node_count() - 1;
    for (std::size_t i = 0; i < n_node_vars; ++i)
        a(i, i) += gmin;
}

int newton_solve(const Netlist& nl, MnaWorkspace& ws, std::vector<double>& x,
                 StampContext at, double gmin) {
    const std::size_t n_unknowns = ws.unknowns();
    XYSIG_EXPECTS(x.size() == n_unknowns);
    at.x = x; // x is updated in place, so the view stays current
    for (int iter = 1; iter <= kMaxNewtonIterations; ++iter) {
        stamp_system(nl, ws, at, gmin);
        if (!ws.solve())
            return -1; // singular at this iterate; let the caller escalate
        const std::span<const double> x_new = ws.solution();

        // Damping: scale the update so no unknown moves more than max_step.
        double max_delta = 0.0;
        for (std::size_t i = 0; i < n_unknowns; ++i)
            max_delta = std::max(max_delta, std::abs(x_new[i] - x[i]));
        const double damp = (max_delta > kMaxStep) ? kMaxStep / max_delta : 1.0;

        bool converged = true;
        for (std::size_t i = 0; i < n_unknowns; ++i) {
            const double delta = x_new[i] - x[i];
            if (std::abs(delta) > kAbsTol + kRelTol * std::abs(x[i]))
                converged = false;
            x[i] += damp * delta;
        }
        // xylint: exact-compare(damp is assigned the literal 1.0 when damping is off; exact state flag)
        if (converged && damp == 1.0)
            return iter;
    }
    return -1;
}

OperatingPoint dc_operating_point(const Netlist& nl, MnaWorkspace& ws) {
    const std::size_t n = ws.unknowns();
    const std::size_t factorised_before = ws.lu_factorisations();
    std::vector<double> x(n, 0.0);
    const auto solve = [&](double gmin, double source_scale) {
        return newton_solve(nl, ws, x, {.source_scale = source_scale}, gmin);
    };
    const auto solved = [&](int newton_iterations) {
        OperatingPoint op(nl, std::move(x));
        op.newton_iterations = newton_iterations;
        op.lu_factorisations = ws.lu_factorisations() - factorised_before;
        return op;
    };

    // Ladder 1: plain Newton from a zero start.
    int iters = solve(kGmin, 1.0);
    if (iters > 0)
        return solved(iters);

    // Ladder 2: gmin stepping — start heavily damped and relax.
    bool gmin_ok = true;
    std::fill(x.begin(), x.end(), 0.0);
    int total_iters = 0;
    for (double g = kGminSteppingStart; g >= kGmin; g /= 10.0) {
        iters = solve(g, 1.0);
        if (iters < 0) {
            gmin_ok = false;
            break;
        }
        total_iters += iters;
    }
    if (gmin_ok) {
        // Final polish at the target gmin.
        iters = solve(kGmin, 1.0);
        if (iters > 0) {
            OperatingPoint op = solved(total_iters + iters);
            op.used_gmin_stepping = true;
            return op;
        }
    }

    // Ladder 3: source stepping — ramp all independent sources from zero.
    std::fill(x.begin(), x.end(), 0.0);
    total_iters = 0;
    bool source_ok = true;
    for (int s = 1; s <= kSourceSteps; ++s) {
        iters = solve(kGmin, static_cast<double>(s) / kSourceSteps);
        if (iters < 0) {
            source_ok = false;
            break;
        }
        total_iters += iters;
    }
    if (source_ok) {
        OperatingPoint op = solved(total_iters);
        op.used_source_stepping = true;
        return op;
    }

    throw NumericError("dc_operating_point: no convergence (plain NR, gmin "
                       "stepping and source stepping all failed)");
}

} // namespace detail

OperatingPoint dc_operating_point(const Netlist& nl) {
    nl.validate();
    MnaWorkspace ws(nl.assign_unknowns());
    return detail::dc_operating_point(nl, ws);
}

} // namespace xysig::spice
