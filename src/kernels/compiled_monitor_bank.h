#ifndef XYSIG_KERNELS_COMPILED_MONITOR_BANK_H
#define XYSIG_KERNELS_COMPILED_MONITOR_BANK_H

/// \file compiled_monitor_bank.h
/// Devirtualised zoning kernel.
///
/// MonitorBank::code pays one virtual Boundary::h per monitor per sample;
/// the MOS monitors additionally merge a MosParams struct and rebuild the
/// drain-current model per leg per call. CompiledMonitorBank lowers each
/// boundary once, at construction:
///  * LinearBoundary  -> the (a, b, c) coefficient triple,
///  * MosCurrentBoundary -> four flat terms; DC-driven legs are
///    constant-folded to their drain current, X/Y-driven legs lower to
///    the shared drain-current model (spice::MosAtDrainBias: the frame
///    change and the per-leg constants of spice::NmosDrainCurrent hoisted
///    out of the sample loop), and legs that are identical across
///    monitors — the paper's Table I shares its X and Y input devices
///    between rows — are deduplicated so each unique leg current is
///    evaluated once per sample for the whole bank;
///  * anything else   -> a cloned fallback boundary kept on the virtual path.
///
/// codes_into walks the trace once per linear/fallback monitor (bit-plane
/// OR) and once for all MOS monitors together (unique legs, then the
/// per-monitor current comparisons), so the hot loop is branch-light and
/// free of virtual dispatch for every compilable monitor. Codes are
/// bit-identical to MonitorBank::code at every sample, whatever the mix of
/// compiled and fallback monitors.
///
/// Under SampleMode::fast_math the EKV sub-bank switches to the batched
/// vecmath softplus kernel: the drain-current softplus pair of every
/// unique EKV leg already in the model's frame (nMOS at forward drain
/// bias, as in every monitor of the paper) is evaluated over the whole
/// trace with the SIMD polynomial instead of libm's exp+log1p; any other
/// leg keeps its exact current. Codes may then differ from the exact
/// path for samples sitting within the softplus tolerance of a zone
/// boundary — the same opt-in contract as fast_math sampling. The fast
/// pass falls back to the exact loop (deterministically, from the trace
/// alone) when a trace excursion would push a softplus argument outside
/// the vecmath domain, so out-of-contract inputs never reach the kernel.

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "monitor/monitor_bank.h"
#include "signal/sample_mode.h"
#include "spice/mosfet.h"

namespace xysig::kernels {

class CompiledMonitorBank {
public:
    CompiledMonitorBank() = default;

    /// Lowers every monitor of the bank. Never fails: non-compilable
    /// boundaries are cloned into the fallback list, so the compiled bank is
    /// self-contained and does not reference `bank` afterwards.
    [[nodiscard]] static CompiledMonitorBank compile(const monitor::MonitorBank& bank);

    CompiledMonitorBank(const CompiledMonitorBank& other);
    CompiledMonitorBank& operator=(const CompiledMonitorBank& other);
    CompiledMonitorBank(CompiledMonitorBank&&) noexcept = default;
    CompiledMonitorBank& operator=(CompiledMonitorBank&&) noexcept = default;

    /// Total monitors / how many were lowered / how many stayed virtual.
    [[nodiscard]] std::size_t size() const noexcept { return n_monitors_; }
    [[nodiscard]] std::size_t fallback_count() const noexcept {
        return fallback_.size();
    }
    [[nodiscard]] std::size_t compiled_count() const noexcept {
        return n_monitors_ - fallback_.size();
    }
    /// Deduplicated dynamic MOS legs evaluated per sample (tests pin the
    /// Table I sharing: 12 legs collapse to 6).
    [[nodiscard]] std::size_t unique_leg_count() const noexcept {
        return legs_.size();
    }

    /// Zone code of every (x, y) sample, one monitor pass at a time; codes
    /// is resized to xs.size(). In exact mode (the default) bit-identical
    /// to calling MonitorBank::code per sample. fast_math batches the EKV
    /// softplus pairs through vecmath (see the file comment); linear and
    /// fallback monitors always take the exact path. The bank must be
    /// non-empty.
    void codes_into(std::span<const double> xs, std::span<const double> ys,
                    std::vector<unsigned>& codes,
                    SampleMode mode = SampleMode::exact) const;

private:
    /// A deduplicated dynamic leg: its gate follows x or y, and its drain
    /// current is the shared model at the monitor's drain bias. (vds,
    /// params) is the dedup key the device was built from.
    struct MosLeg {
        bool x_input = true; ///< gate driven by x (else y)
        double vds = 0.0;
        spice::MosParams params{};
        spice::MosAtDrainBias device{};

        [[nodiscard]] double value(double x, double y) const noexcept {
            return device.id(x_input ? x : y);
        }
    };

    /// One of the four summed currents of a comparator: either a folded DC
    /// constant or a reference into the unique-leg table.
    struct MosTerm {
        bool is_constant = true;
        double constant = 0.0;
        std::uint32_t leg = 0;
    };

    struct LinearMonitor {
        unsigned mask; ///< bit of this monitor in the zone code
        double a, b, c;
    };

    struct MosMonitor {
        unsigned mask;
        std::array<MosTerm, 4> terms;
        double offset_current;
        double orientation;
    };

    struct FallbackMonitor {
        unsigned mask;
        std::unique_ptr<monitor::Boundary> boundary;
    };

    /// Oriented comparator output of one MOS monitor for one sample whose
    /// current of unique leg u is leg_values[u * stride] (stride 1 for the
    /// exact loop's per-sample row, n for the fast pass's per-leg lanes).
    [[nodiscard]] static double mos_h(const MosMonitor& m, const double* leg_values,
                                      std::size_t stride);
    /// The fast_math MOS pass: batched softplus legs, one lane per leg,
    /// then mos_h per sample. Returns false — having written nothing —
    /// when no batchable EKV leg exists or a trace excursion leaves the
    /// vecmath softplus domain; the caller then runs the exact loop.
    bool fast_mos_codes(const double* px, const double* py, std::size_t n,
                        unsigned* out) const;

    std::size_t n_monitors_ = 0;
    std::vector<LinearMonitor> linear_;
    std::vector<MosLeg> legs_; ///< deduplicated dynamic legs
    std::vector<MosMonitor> mos_;
    std::vector<FallbackMonitor> fallback_;
};

} // namespace xysig::kernels

#endif // XYSIG_KERNELS_COMPILED_MONITOR_BANK_H
