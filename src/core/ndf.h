#ifndef XYSIG_CORE_NDF_H
#define XYSIG_CORE_NDF_H

/// \file ndf.h
/// The paper's metric (Eq. 2): the normalized discrepancy factor
///   NDF = (1/T) * Integral_0^T dH(S_O(t), S_G(t)) dt,
/// the time-average Hamming distance between the observed and golden
/// zone-code chronograms over one Lissajous period.
///
/// The integral is evaluated exactly by merging the two event sequences
/// (the integrand is piecewise constant), so there is no sampling error.
/// The tests cross-check it against a Riemann sum, core::ndf_sampled in
/// tests/support/ndf_sampled.h.

#include <vector>

#include "capture/chronogram.h"

namespace xysig::core {

/// Bit-count Hamming distance between two zone codes.
[[nodiscard]] unsigned hamming_distance(unsigned a, unsigned b) noexcept;

/// Exact NDF between two chronograms. Periods must agree within 0.1%
/// (the capture clock quantises the period slightly); the integration
/// window is the smaller period.
[[nodiscard]] double ndf(const capture::Chronogram& observed,
                         const capture::Chronogram& golden);

/// One piece of the Hamming-distance chronogram (Fig. 7, lower plot).
struct HammingSegment {
    double t_begin;
    double t_end;
    unsigned distance;
};

/// The full piecewise Hamming profile dH(S_O(t), S_G(t)) over one period.
[[nodiscard]] std::vector<HammingSegment> hamming_profile(
    const capture::Chronogram& observed, const capture::Chronogram& golden);

} // namespace xysig::core

#endif // XYSIG_CORE_NDF_H
