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
///    between rows — are deduplicated.
/// These are the only boundary types the library defines; compile() rejects
/// any other.
///
/// Pair groups. An EKV leg's softplus pair (NmosDrainCurrent::ekv_pair)
/// reads only the gate voltage, the frame (mirror, gate_shift, negate),
/// vt0, n_slope and vds; W and kp enter through ispec alone. Legs that
/// agree on the input axis and those fields form one group whose pair is
/// evaluated once per sample; each leg then takes its own
/// ekv_id0(sf, sr) * clm and sign. Table I's 6 unique legs form 2 groups
/// (one x, one y); a Monte-Carlo-perturbed bank just forms more groups.
/// Level-1 legs are evaluated per leg.
///
/// x lanes. When x is a fixed trace (the stimulus, for every behavioural
/// member of a job), the x groups' pairs are the same for every member:
/// x_pair_lanes() computes them once over that trace, and bind_x_lanes()
/// hands them to codes_into. codes_into reads them only when its xs is
/// bitwise the trace they were computed over (pointer-equal, else
/// memcmp) and its pass runs in their sampling mode; any other x (noise,
/// a SPICE member, a one-ULP change) evaluates its pairs as if no lanes
/// were bound. Correctness therefore never depends on who binds what.
///
/// codes_into walks the trace once per linear monitor (bit-plane OR) and
/// once, in blocks, for all MOS monitors together (the groups' pairs, then
/// each leg's current, then the per-monitor current comparisons), so the
/// hot loop is free of virtual dispatch. Codes are bit-identical to
/// MonitorBank::code at every sample, whatever the mix of linear and MOS
/// monitors, lanes or no lanes.
///
/// Under SampleMode::fast_math the groups already in the model's frame
/// (EKV nMOS at forward drain bias, as in every monitor of the paper)
/// evaluate their pairs with the batched vecmath softplus kernel instead
/// of libm's exp+log1p, one softplus_batch call per group and block; any
/// other group keeps its exact pair. Codes may then differ from the exact
/// path for samples sitting within the softplus tolerance of a zone
/// boundary — the same opt-in contract as fast_math sampling. The fast
/// pass falls back to the exact pass (deterministically, from the trace
/// alone, and never reading fast lanes) when a trace excursion would push
/// a softplus argument outside the vecmath domain, so out-of-contract
/// inputs never reach the kernel.

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "monitor/monitor_bank.h"
#include "signal/sample_mode.h"
#include "spice/mosfet.h"

namespace xysig::kernels {

class CompiledMonitorBank {
public:
    /// The (sf, sr) pairs of every x group over one x trace, in one
    /// sampling mode (see the file comment).
    struct XPairLanes {
        std::shared_ptr<const std::vector<double>> xs; ///< the trace
        SampleMode mode = SampleMode::exact;
        /// x group k's forward lane at [2kn, 2kn + n), its reverse lane at
        /// [2kn + n, 2kn + 2n). Empty when a fast_math x excursion leaves
        /// the vecmath domain: every fast pass over that x falls back to
        /// the exact pass anyway.
        std::vector<double> pairs;
    };

    CompiledMonitorBank() = default;

    /// Lowers every monitor of the bank; the compiled bank does not
    /// reference `bank` afterwards. Throws InvalidInput naming the first
    /// monitor that is neither a LinearBoundary nor a MosCurrentBoundary.
    [[nodiscard]] static CompiledMonitorBank compile(const monitor::MonitorBank& bank);

    /// Total monitors.
    [[nodiscard]] std::size_t size() const noexcept { return n_monitors_; }
    /// Deduplicated dynamic MOS legs (tests pin the Table I sharing: 12
    /// legs collapse to 6).
    [[nodiscard]] std::size_t unique_leg_count() const noexcept {
        return legs_.size();
    }
    /// EKV softplus pairs evaluated per sample without lanes (Table I: 2).
    [[nodiscard]] std::size_t pair_count() const noexcept { return groups_.size(); }

    /// The x groups' pairs over the whole of `*xs` in `mode`: the same
    /// pair pass codes_into runs, so reading them is bit-identical to
    /// evaluating them.
    [[nodiscard]] XPairLanes x_pair_lanes(std::shared_ptr<const std::vector<double>> xs,
                                          SampleMode mode) const;
    /// Lanes codes_into may read (null unbinds). They must come from
    /// x_pair_lanes of a bank compiled from the same monitors.
    void bind_x_lanes(std::shared_ptr<const XPairLanes> lanes);
    /// The bound lanes (tests check that pipelines share one entry).
    [[nodiscard]] const std::shared_ptr<const XPairLanes>& x_lanes() const noexcept {
        return x_lanes_;
    }

    /// Zone code of every (x, y) sample, one monitor pass at a time; codes
    /// is resized to xs.size(). In exact mode (the default) bit-identical
    /// to calling MonitorBank::code per sample. fast_math batches the EKV
    /// softplus pairs through vecmath (see the file comment); linear
    /// monitors always take the exact path. The bank must be non-empty.
    void codes_into(std::span<const double> xs, std::span<const double> ys,
                    std::vector<unsigned>& codes,
                    SampleMode mode = SampleMode::exact) const;

private:
    static constexpr std::uint32_t kNoGroup = UINT32_MAX;

    /// EKV legs sharing one softplus pair: same input axis and device
    /// frame, same (vt0, n_slope, vds). `device` is the first member's;
    /// only the fields the pair reads are used.
    struct PairGroup {
        bool x_input = true;
        std::uint32_t x_lane = 0; ///< x groups: its pair's index in XPairLanes
        spice::MosAtDrainBias device{};
    };

    /// A deduplicated dynamic leg: its gate follows x or y, and its drain
    /// current is the shared model at the monitor's drain bias. (vds,
    /// params) is the dedup key the device was built from.
    struct MosLeg {
        bool x_input = true; ///< gate driven by x (else y)
        double vds = 0.0;
        spice::MosParams params{};
        spice::MosAtDrainBias device{};
        std::uint32_t group = kNoGroup; ///< its pair group; none for level-1
    };

    /// One of the four summed currents of a comparator: a folded DC
    /// current in constants_, or a unique leg in legs_.
    struct MosTerm {
        bool is_constant = true;
        std::uint32_t index = 0;
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

    /// True when fast_math may batch group g: an EKV pair already in the
    /// model's frame.
    [[nodiscard]] static bool batched(const PairGroup& g) noexcept;
    /// The pair pass: group g's pairs at inputs in[0, n), forward into
    /// out[0, n) and reverse into out[n, 2n); batched groups go through
    /// softplus_batch under fast_math, everything else is exact.
    static void group_pairs(const PairGroup& g, const double* in, std::size_t n,
                            SampleMode mode, double* out);
    /// The fast_math domain scan of one input axis: false when a sample is
    /// NaN or beyond any physical excursion, or a batched group on that
    /// axis could see a softplus argument outside the vecmath domain.
    [[nodiscard]] bool in_fast_domain(const double* in, std::size_t n,
                                      bool x_axis) const;
    /// The bound lanes when `xs` is bitwise their trace and `mode` is
    /// theirs, else null.
    [[nodiscard]] const XPairLanes* lanes_for(std::span<const double> xs,
                                              SampleMode mode) const;
    /// The MOS sub-bank's bits ORed into out[0, n) in `mode`, x group
    /// pairs read from `lanes` when non-null.
    void mos_codes(const double* px, const double* py, std::size_t n,
                   SampleMode mode, const XPairLanes* lanes, unsigned* out) const;

    std::size_t n_monitors_ = 0;
    std::vector<LinearMonitor> linear_;
    std::vector<PairGroup> groups_;
    std::uint32_t x_groups_ = 0;
    std::vector<MosLeg> legs_;       ///< deduplicated dynamic legs
    std::vector<double> constants_;  ///< DC-driven legs' drain currents
    std::vector<MosMonitor> mos_;
    std::shared_ptr<const XPairLanes> x_lanes_;
};

} // namespace xysig::kernels

#endif // XYSIG_KERNELS_COMPILED_MONITOR_BANK_H
