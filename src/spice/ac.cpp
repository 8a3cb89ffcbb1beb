#include "spice/ac.h"

#include <algorithm>
#include <cmath>

#include "common/contracts.h"
#include "common/math_util.h"
#include "common/matrix.h"
#include "spice/dc.h"

namespace xysig::spice {

std::complex<double> AcResult::voltage(NodeId node, std::size_t point) const {
    XYSIG_EXPECTS(point < rows_.size());
    return node_voltage<std::complex<double>>(rows_[point], node);
}

std::complex<double> AcResult::voltage(const std::string& node,
                                       std::size_t point) const {
    return voltage(netlist_->find_node(node), point);
}

std::vector<double> AcResult::magnitude(const std::string& node) const {
    const NodeId id = netlist_->find_node(node);
    std::vector<double> out(rows_.size());
    for (std::size_t i = 0; i < rows_.size(); ++i)
        out[i] = std::abs(voltage(id, i));
    return out;
}

std::vector<double> AcResult::phase(const std::string& node) const {
    const NodeId id = netlist_->find_node(node);
    std::vector<double> out(rows_.size());
    for (std::size_t i = 0; i < rows_.size(); ++i)
        out[i] = std::arg(voltage(id, i));
    return out;
}

void AcResult::append(double f_hz, std::vector<std::complex<double>> x) {
    freq_hz_.push_back(f_hz);
    rows_.push_back(std::move(x));
}

AcResult run_ac(const Netlist& nl, const AcOptions& opts) {
    XYSIG_EXPECTS(opts.f_start > 0.0);
    XYSIG_EXPECTS(opts.f_stop > opts.f_start);
    XYSIG_EXPECTS(opts.points_per_decade >= 1);

    nl.validate();
    MnaWorkspace ws(nl.assign_unknowns());
    const OperatingPoint op = detail::dc_operating_point(nl, ws);
    // The real part: the Newton system at the operating point, stamped once.
    detail::stamp_system(nl, ws, {.x = op.unknowns()}, kGmin);
    const Matrix<double>& real_part = ws.matrix();
    const std::size_t n = ws.unknowns();

    AcResult result(nl);
    const double decades = std::log10(opts.f_stop / opts.f_start);
    const auto points = static_cast<std::size_t>(
        std::ceil(decades * static_cast<double>(opts.points_per_decade))) + 1;

    for (std::size_t k = 0; k < points; ++k) {
        const double frac =
            (points == 1) ? 0.0
                          : static_cast<double>(k) / static_cast<double>(points - 1);
        const double f = opts.f_start * std::pow(10.0, frac * decades);

        Matrix<std::complex<double>> a(n, n);
        std::copy_n(real_part.data(), n * n, a.data());
        std::vector<std::complex<double>> b(n, {0.0, 0.0});
        ComplexAssembler mna(a, b, nl.node_count());
        AcStampContext ctx{.omega = kTwoPi * f, .mna = &mna};
        for (const auto& dev : nl.devices())
            dev->stamp_ac(ctx);

        result.append(f, solve_linear_system(std::move(a), b));
    }
    return result;
}

} // namespace xysig::spice
