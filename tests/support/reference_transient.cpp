#include "support/reference_transient.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/contracts.h"
#include "common/error.h"
#include "common/matrix.h"

namespace xysig::spice {
namespace {

// The solver configuration, as literals (see the file comment).
constexpr int kMaxIterations = 200;
constexpr double kAbsTol = 1e-9;
constexpr double kRelTol = 1e-6;
constexpr double kMaxStep = 0.5;
constexpr double kTargetGmin = 1e-12;
constexpr double kGminSteppingStart = 1e-3;
constexpr int kSourceSteps = 10;

/// One damped-Newton solve at fixed gmin / source_scale; x is the initial
/// guess on entry and the solution on success. Returns iterations used, or
/// -1 when not converged (including singular-matrix failures).
int newton_solve(const Netlist& nl, std::vector<double>& x, Integrator integrator,
                 double time, double dt, double gmin, double source_scale) {
    const std::size_t n_unknowns = x.size();
    const std::size_t n_node_vars = nl.node_count() - 1;

    for (int iter = 1; iter <= kMaxIterations; ++iter) {
        Matrix<double> a(n_unknowns, n_unknowns);
        std::vector<double> b(n_unknowns, 0.0);
        RealAssembler mna(a, b, nl.node_count());

        StampContext ctx;
        ctx.integrator = integrator;
        ctx.time = time;
        ctx.dt = dt;
        ctx.source_scale = source_scale;
        ctx.x = x;
        ctx.mna = &mna;

        for (const auto& dev : nl.devices())
            dev->stamp(ctx);
        for (std::size_t i = 0; i < n_node_vars; ++i)
            a(i, i) += gmin;

        std::vector<double> x_new;
        try {
            x_new = solve_linear_system(std::move(a), b);
        } catch (const NumericError&) {
            return -1; // singular at this iterate; let the caller escalate
        }

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

} // namespace

std::vector<double> reference_operating_point(const Netlist& nl) {
    nl.validate();
    std::vector<double> x(nl.assign_unknowns(), 0.0);
    const auto solve = [&](double gmin, double source_scale) {
        return newton_solve(nl, x, Integrator::trapezoidal, 0.0, 0.0, gmin,
                            source_scale);
    };

    if (solve(kTargetGmin, 1.0) > 0)
        return x;

    bool gmin_ok = true;
    std::fill(x.begin(), x.end(), 0.0);
    for (double g = kGminSteppingStart; g >= kTargetGmin; g /= 10.0) {
        if (solve(g, 1.0) < 0) {
            gmin_ok = false;
            break;
        }
    }
    if (gmin_ok && solve(kTargetGmin, 1.0) > 0)
        return x;

    std::fill(x.begin(), x.end(), 0.0);
    bool source_ok = true;
    for (int s = 1; s <= kSourceSteps; ++s) {
        if (solve(kTargetGmin, static_cast<double>(s) / kSourceSteps) < 0) {
            source_ok = false;
            break;
        }
    }
    if (source_ok)
        return x;

    throw NumericError("dc_operating_point: no convergence (plain NR, gmin "
                       "stepping and source stepping all failed)");
}

std::size_t reference_stream_transient(const Netlist& nl, const TransientOptions& opts,
                                       const TransientStepSink& on_step) {
    XYSIG_EXPECTS(opts.t_stop > 0.0);
    XYSIG_EXPECTS(opts.dt > 0.0);
    const auto steps = static_cast<std::size_t>(std::llround(opts.t_stop / opts.dt));
    XYSIG_EXPECTS(steps >= 1);

    std::vector<double> x = reference_operating_point(nl);
    for (const auto& dev : nl.devices())
        dev->begin_transient(x);
    on_step(0, 0.0, x);

    std::size_t newton_iterations = 0;
    for (std::size_t k = 1; k <= steps; ++k) {
        const double t_new = static_cast<double>(k) * opts.dt;
        const Integrator integ =
            (k == 1) ? Integrator::backward_euler : Integrator::trapezoidal;
        const int iters =
            newton_solve(nl, x, integ, t_new, opts.dt, kTargetGmin, 1.0);
        if (iters < 0)
            throw NumericError("run_transient: step did not converge at t = " +
                               std::to_string(t_new));
        newton_iterations += static_cast<std::size_t>(iters);
        for (const auto& dev : nl.devices())
            dev->step_accepted(x, t_new, opts.dt, integ);
        on_step(k, t_new, x);
    }
    return newton_iterations;
}

} // namespace xysig::spice
