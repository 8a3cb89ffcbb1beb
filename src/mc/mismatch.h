#ifndef XYSIG_MC_MISMATCH_H
#define XYSIG_MC_MISMATCH_H

/// \file mismatch.h
/// Process and mismatch variability models for the Monte-Carlo experiments
/// (the paper validates its measured boundary curves against foundry
/// process+mismatch Monte-Carlo predictions; this is our equivalent).

#include "common/rng.h"

namespace xysig::mc {

// Pelgrom-law local mismatch: parameter spreads scale as 1/sqrt(W*L).
// Constants are in SI (V*m and m), i.e. A_vt = 3.5 mV*um = 3.5e-9 V*m.
inline constexpr double kAvt = 3.5e-9;   ///< threshold mismatch coefficient (V*m)
inline constexpr double kAbeta = 1.0e-8; ///< relative beta mismatch coefficient (m)

/// Standard deviation of a single device's Vt deviation (V).
[[nodiscard]] double sigma_vt(double w, double l);
/// Standard deviation of a single device's relative kp deviation.
[[nodiscard]] double sigma_beta_rel(double w, double l);

// Die-level (global) process variation, applied identically to all devices
// of one sample.
inline constexpr double kSigmaVt0 = 0.015;  ///< global Vt shift spread (V)
inline constexpr double kSigmaKpRel = 0.04; ///< global kp relative spread
/// Comparator offset current spread (A): load mismatch + leakage referred
/// to the current comparison. Dominates the decision when the input
/// devices are in subthreshold (nA-scale currents).
inline constexpr double kSigmaOffsetCurrent = 2e-9;

/// One Monte-Carlo sample of the global process state.
struct ProcessSample {
    double delta_vt0 = 0.0; ///< added to every device's vt0
    double kp_scale = 1.0;  ///< multiplies every device's kp
};

/// Draws delta_vt0, then kp_scale.
[[nodiscard]] ProcessSample sample_process(Rng& rng);

} // namespace xysig::mc

#endif // XYSIG_MC_MISMATCH_H
