#ifndef XYSIG_MONITOR_BOUNDARY_H
#define XYSIG_MONITOR_BOUNDARY_H

/// \file boundary.h
/// Oriented zone boundaries in the X-Y plane.
///
/// Each monitor contributes one bit of the zone code: "0" on the side of its
/// control curve that contains the origin, "1" on the other side (paper
/// Section IV-A). A Boundary is therefore a signed function h(x, y) whose
/// zero locus is the control curve, normalised so that h <= 0 on the origin
/// side.

#include <memory>
#include <string>
#include <vector>

namespace xysig::monitor {

/// The plane the monitors divide: the paper's Fig. 4/6 axes, 0 to 1 V on
/// x and on y. ZoneMap rasterises it and trace_boundary scans y over it.
inline constexpr double kPlaneLo = 0.0;
inline constexpr double kPlaneHi = 1.0;

/// A point of a traced control curve.
struct CurvePoint {
    double x;
    double y;
};

/// Signed, origin-oriented plane divider.
class Boundary {
public:
    virtual ~Boundary() = default;

    /// Signed boundary function; h = 0 on the control curve, h <= 0 on the
    /// region containing the origin.
    [[nodiscard]] virtual double h(double x, double y) const = 0;

    /// Monitor output bit at (x, y): true ("1") away from the origin side.
    [[nodiscard]] bool side(double x, double y) const { return h(x, y) > 0.0; }

    [[nodiscard]] virtual std::unique_ptr<Boundary> clone() const = 0;

    /// Exact identity for caching: two boundaries with equal non-empty
    /// fingerprints must classify every (x, y) identically. The default
    /// (empty) marks a boundary type without one; such a type can still be
    /// traced and zoned on the virtual path (MonitorBank::code), but a
    /// pipeline accepts only the types its compiled kernel lowers, which
    /// all fingerprint themselves.
    [[nodiscard]] virtual std::string fingerprint() const { return {}; }

protected:
    Boundary() = default;
    Boundary(const Boundary&) = default;
    Boundary& operator=(const Boundary&) = default;
};

/// Straight-line boundary a*x + b*y + c = 0 — the classic X-Y zoning
/// baseline ([12],[13]: weighted adders + comparators). Orientation is
/// normalised at construction: if the origin evaluates positive the
/// coefficients are flipped; a line through the origin is oriented by the
/// reference point (0.05, 0) (matches the nonlinear monitors' convention).
class LinearBoundary final : public Boundary {
public:
    LinearBoundary(double a, double b, double c);

    [[nodiscard]] double h(double x, double y) const override;
    [[nodiscard]] std::unique_ptr<Boundary> clone() const override {
        return std::make_unique<LinearBoundary>(*this);
    }
    [[nodiscard]] std::string fingerprint() const override;

    [[nodiscard]] double a() const noexcept { return a_; }
    [[nodiscard]] double b() const noexcept { return b_; }
    [[nodiscard]] double c() const noexcept { return c_; }

private:
    double a_, b_, c_;
};

/// Traces the control curve of a boundary over the columns [x_lo, x_hi] of
/// the plane: for each of n_x columns, every y root of h(x, .) found by a
/// sign scan over 256 evenly spaced y samples from kPlaneLo to kPlaneHi
/// plus bisection is returned. Multi-branch curves simply produce several
/// points per column.
[[nodiscard]] std::vector<CurvePoint> trace_boundary(const Boundary& boundary,
                                                     double x_lo, double x_hi,
                                                     std::size_t n_x);

} // namespace xysig::monitor

#endif // XYSIG_MONITOR_BOUNDARY_H
