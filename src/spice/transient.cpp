#include "spice/transient.h"

#include <cmath>

#include "common/contracts.h"

namespace xysig::spice {

TransientCounts stream_transient(const Netlist& nl, const TransientOptions& opts,
                                 const TransientStepSink& on_step) {
    XYSIG_EXPECTS(opts.t_stop > 0.0);
    XYSIG_EXPECTS(opts.dt > 0.0);
    XYSIG_EXPECTS(on_step != nullptr);
    const auto steps = static_cast<std::size_t>(std::llround(opts.t_stop / opts.dt));
    XYSIG_EXPECTS(steps >= 1);

    nl.validate();
    MnaWorkspace ws(nl.assign_unknowns());
    const OperatingPoint op = detail::dc_operating_point(nl, ws);
    for (const auto& dev : nl.devices())
        dev->begin_transient(op.unknowns());
    on_step(0, 0.0, op.unknowns());

    std::vector<double> x(op.unknowns().begin(), op.unknowns().end());
    TransientCounts counts;
    for (std::size_t k = 1; k <= steps; ++k) {
        const double t_new = static_cast<double>(k) * opts.dt;
        const Integrator integ =
            (k == 1) ? Integrator::backward_euler : Integrator::trapezoidal;
        const int iters = detail::newton_solve(
            nl, ws, x, {.integrator = integ, .time = t_new, .dt = opts.dt}, kGmin);
        if (iters < 0)
            throw NumericError("run_transient: step did not converge at t = " +
                               std::to_string(t_new));
        counts.newton_iterations += static_cast<std::size_t>(iters);
        for (const auto& dev : nl.devices())
            dev->step_accepted(x, t_new, opts.dt, integ);
        on_step(k, t_new, x);
    }
    counts.lu_factorisations = ws.lu_factorisations();
    return counts;
}

double TransientResult::voltage(NodeId node, std::size_t step) const {
    XYSIG_EXPECTS(step < time_.size());
    return node_voltage(std::span<const double>(values_).subspan(step * width_, width_),
                        node);
}

std::vector<double> TransientResult::voltage_trace(NodeId node) const {
    std::vector<double> out(time_.size());
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = voltage(node, i);
    return out;
}

std::vector<double> TransientResult::voltage_trace(const std::string& node) const {
    XYSIG_EXPECTS(netlist_ != nullptr); // default-constructed: run first
    return voltage_trace(netlist_->find_node(node));
}

SampledSignal TransientResult::signal(const std::string& node) const {
    XYSIG_EXPECTS(time_.size() >= 2);
    const double dt = time_[1] - time_[0];
    return SampledSignal(time_.front(), dt, voltage_trace(node));
}

TransientResult run_transient(const Netlist& nl, const TransientOptions& opts) {
    TransientResult result;
    run_transient_into(nl, opts, result);
    return result;
}

void run_transient_into(const Netlist& nl, const TransientOptions& opts,
                        TransientResult& out) {
    out.netlist_ = &nl;
    out.time_.clear();
    out.values_.clear();
    out.total_newton_iterations = 0; // not the previous run's if this throws
    out.lu_factorisations = 0;
    const TransientCounts counts = stream_transient(
        nl, opts, [&out](std::size_t, double t, std::span<const double> x) {
            out.width_ = x.size();
            out.time_.push_back(t);
            out.values_.insert(out.values_.end(), x.begin(), x.end());
        });
    out.total_newton_iterations = counts.newton_iterations;
    out.lu_factorisations = counts.lu_factorisations;
}

} // namespace xysig::spice
