#ifndef XYSIG_SPICE_DC_H
#define XYSIG_SPICE_DC_H

/// \file dc.h
/// Nonlinear DC solution: damped Newton-Raphson with gmin stepping and
/// source stepping fallbacks (the standard SPICE convergence ladder).
///
/// Every solve runs one fixed configuration:
///  * a Newton solve takes at most 200 iterations; it converges when every
///    unknown moves by at most 1e-9 + 1e-6 * |x|, and each update is scaled
///    so no unknown moves more than 0.5 (volts) per iteration;
///  * every node has kGmin (1e-12 S) to ground;
///  * the ladder, each rung starting from all-zero unknowns: plain Newton;
///    then gmin stepping, from 1e-3 S down by decades to kGmin, plus a
///    final solve at kGmin; then source stepping, every independent source
///    ramped in 10 equal steps at kGmin. NumericError when all three fail;
///  * sources are evaluated at t = 0, where a transient starts.
/// No cache key (SignaturePipeline::fingerprint, WireJob::universe_key)
/// records a solver setting; one configuration is what makes that sound.
///
/// One routine stamps the MNA system: detail::stamp_system, called by every
/// Newton iteration, here and in each transient step, and once per sweep by
/// AC analysis for its real part. A StampContext with dt = 0 is a DC point
/// (capacitors open, inductors short).

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "spice/netlist.h"
#include "spice/types.h"

namespace xysig::spice {

/// A solved operating point. Holds the full unknown vector; node voltages
/// are looked up through the originating netlist's node ids.
class OperatingPoint {
public:
    OperatingPoint(const Netlist& nl, std::vector<double> x);

    [[nodiscard]] double voltage(NodeId node) const;
    [[nodiscard]] double voltage(const std::string& node_name) const;
    [[nodiscard]] std::span<const double> unknowns() const noexcept { return x_; }

    /// Diagnostics filled in by dc_operating_point().
    int newton_iterations = 0;
    std::size_t lu_factorisations = 0;
    bool used_gmin_stepping = false;
    bool used_source_stepping = false;

private:
    const Netlist* netlist_;
    std::vector<double> x_;
};

/// The MNA system of one run and the LU factors of the last one solved.
///
/// Every Newton iteration of a run stamps into the same matrix and
/// right-hand side, so the loop allocates nothing. solve() factorises only
/// when the stamped matrix differs bit for bit from the one whose factors it
/// holds, and substitutes only when the right-hand side differs too. LU and
/// substitution are functions of the bits they read, so the reuse changes no
/// result bit, and no device has to declare itself linear. A run owns its
/// workspace: nothing is shared between runs, members or threads.
class MnaWorkspace {
public:
    /// A workspace for a system of `unknowns` unknowns
    /// (Netlist::assign_unknowns()).
    explicit MnaWorkspace(std::size_t unknowns);

    /// The system the next solve() solves: zeroed by clear(), then stamped.
    [[nodiscard]] Matrix<double>& matrix() noexcept { return a_; }
    [[nodiscard]] std::vector<double>& rhs() noexcept { return b_; }

    /// Zeroes the matrix and the right-hand side, keeping their storage.
    void clear();

    /// Solves the stamped system; false when its matrix is singular to
    /// working precision, which also drops the held factors.
    [[nodiscard]] bool solve();

    /// The solution of the last successful solve().
    [[nodiscard]] std::span<const double> solution() const noexcept { return x_; }

    [[nodiscard]] std::size_t unknowns() const noexcept { return x_.size(); }

    /// Factorisations started so far, singular ones included.
    [[nodiscard]] std::size_t lu_factorisations() const noexcept {
        return lu_factorisations_;
    }

private:
    Matrix<double> a_;             ///< stamping target
    std::vector<double> b_;        ///< stamping target
    Matrix<double> factored_;      ///< the matrix whose factors lu_ holds
    Matrix<double> lu_;
    std::vector<std::size_t> perm_;
    std::vector<double> solved_b_; ///< the right-hand side x_ solves
    std::vector<double> x_;
    /// lu_ holds factors, and x_ solves them for solved_b_ (every
    /// factorisation that succeeds is followed by a substitution).
    bool have_lu_ = false;
    std::size_t lu_factorisations_ = 0;
};

/// Solves the DC operating point (sources at t = 0) through the ladder of
/// the file comment. Throws NumericError when all convergence aids fail.
[[nodiscard]] OperatingPoint dc_operating_point(const Netlist& nl);

namespace detail {

/// dc_operating_point inside a caller's workspace, which must be sized by
/// nl.assign_unknowns() after nl.validate().
[[nodiscard]] OperatingPoint dc_operating_point(const Netlist& nl, MnaWorkspace& ws);

/// The one routine that stamps the MNA system, for every Newton iteration
/// and for AC's real part: zeroes ws's system, stamps every device of nl in
/// netlist order at `at` (at.mna is set here), then adds gmin from every
/// node to ground.
void stamp_system(const Netlist& nl, MnaWorkspace& ws, StampContext at, double gmin);

/// One damped-Newton solve in ws at the point `at` describes (its x and mna
/// are set here) and at fixed gmin; x is the initial guess on entry and the
/// solution on success. Returns iterations used, or -1 when not converged
/// (including singular-matrix failures).
int newton_solve(const Netlist& nl, MnaWorkspace& ws, std::vector<double>& x,
                 StampContext at, double gmin);

} // namespace detail

} // namespace xysig::spice

#endif // XYSIG_SPICE_DC_H
