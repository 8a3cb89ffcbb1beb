#ifndef XYSIG_SPICE_AC_H
#define XYSIG_SPICE_AC_H

/// \file ac.h
/// Small-signal AC sweep over a log-spaced frequency grid. The linearised
/// circuit is the Newton system at the DC operating point: run_ac solves the
/// operating point in its own MnaWorkspace (dc.h), then stamps that system
/// once through detail::stamp_system, each device's one stamp(). The
/// result is the real part of every frequency's complex system; per
/// frequency a device adds only what AC adds to it (Device::stamp_ac: the
/// capacitor's j*omega*C, the inductor's -j*omega*L, a voltage source's AC
/// phasor), so AC and transient read the same device models.

#include <complex>
#include <vector>

#include "spice/netlist.h"
#include "spice/types.h"

namespace xysig::spice {

/// Complex node responses per frequency point.
class AcResult {
public:
    explicit AcResult(const Netlist& nl) : netlist_(&nl) {}

    [[nodiscard]] std::span<const double> frequencies() const noexcept {
        return freq_hz_;
    }

    [[nodiscard]] std::complex<double> voltage(NodeId node, std::size_t point) const;
    [[nodiscard]] std::complex<double> voltage(const std::string& node,
                                               std::size_t point) const;

    /// |V(node)| over the whole sweep.
    [[nodiscard]] std::vector<double> magnitude(const std::string& node) const;
    /// Phase (radians) over the whole sweep.
    [[nodiscard]] std::vector<double> phase(const std::string& node) const;

    /// Called by the engine only.
    void append(double f_hz, std::vector<std::complex<double>> x);

private:
    const Netlist* netlist_;
    std::vector<double> freq_hz_;
    std::vector<std::vector<std::complex<double>>> rows_;
};

/// Runs the AC sweep. Exactly the sources with a non-zero AC magnitude
/// drive the small-signal circuit.
[[nodiscard]] AcResult run_ac(const Netlist& nl, const AcOptions& opts);

} // namespace xysig::spice

#endif // XYSIG_SPICE_AC_H
