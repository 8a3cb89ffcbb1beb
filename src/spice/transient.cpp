#include "spice/transient.h"

#include <cmath>

#include "common/contracts.h"

namespace xysig::spice {

std::size_t stream_transient(const Netlist& nl, const TransientOptions& opts,
                             const TransientStepSink& on_step) {
    XYSIG_EXPECTS(opts.t_stop > opts.t_start);
    XYSIG_EXPECTS(opts.dt > 0.0);
    XYSIG_EXPECTS(on_step != nullptr);
    const auto steps = static_cast<std::size_t>(
        std::llround((opts.t_stop - opts.t_start) / opts.dt));
    XYSIG_EXPECTS(steps >= 1);

    const OperatingPoint op = dc_operating_point(nl, opts.dc, opts.t_start);
    const std::size_t n = nl.assign_unknowns();
    for (const auto& dev : nl.devices())
        dev->begin_transient(op.unknowns());
    on_step(0, opts.t_start, op.unknowns());

    std::vector<double> x(op.unknowns().begin(), op.unknowns().end());
    std::size_t newton_iterations = 0;
    for (std::size_t k = 1; k <= steps; ++k) {
        const double t_new = opts.t_start + static_cast<double>(k) * opts.dt;
        const Integrator integ =
            (k == 1) ? Integrator::backward_euler : opts.integrator;
        const int iters = detail::newton_solve(
            nl, x, n, opts.dc.newton, AnalysisMode::transient, integ, t_new,
            opts.dt, opts.dc.gmin, 1.0);
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

double TransientResult::voltage(NodeId node, std::size_t step) const {
    XYSIG_EXPECTS(step < time_.size());
    return node_voltage(std::span(values_).subspan(step * width_, width_), node);
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
    out.total_newton_iterations = stream_transient(
        nl, opts, [&out](std::size_t, double t, std::span<const double> x) {
            out.width_ = x.size();
            out.time_.push_back(t);
            out.values_.insert(out.values_.end(), x.begin(), x.end());
        });
}

} // namespace xysig::spice
