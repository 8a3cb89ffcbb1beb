#ifndef XYSIG_FILTER_CUT_H
#define XYSIG_FILTER_CUT_H

/// \file cut.h
/// Circuit-under-test abstraction: anything that, driven by the multitone
/// stimulus, produces one steady-state period of the (x(t), y(t)) pair the
/// monitors observe. Two implementations:
///  * BehaviouralCut — exact LTI steady state of a Biquad (fast path for
///    sweeps and Monte-Carlo);
///  * SpiceCut — transient simulation of an arbitrary netlist (Tow-Thomas,
///    Sallen-Key, ...) with settling periods discarded.

#include <functional>
#include <memory>
#include <string>

#include "filter/biquad.h"
#include "signal/sampled.h"
#include "signal/waveform.h"
#include "spice/netlist.h"
#include "spice/types.h"

namespace xysig::filter {

/// Produces the observed Lissajous period for a stimulus.
///
/// Thread-safety contract (relied on by core::BatchNdfEvaluator): a single
/// Cut instance may be evaluated from at most one thread at a time, but
/// distinct instances must be safe to evaluate concurrently — they must not
/// share mutable state. BehaviouralCut is stateless and satisfies this
/// trivially; SpiceCut satisfies it when every instance owns (or exclusively
/// references) its own netlist, which is what the owning constructor and
/// Netlist::clone() provide.
class Cut {
public:
    virtual ~Cut() = default;

    /// One steady-state stimulus period of (x, y), re-based to t = 0, with
    /// samples_per_period uniform samples. x is the stimulus itself unless
    /// the CUT observes something else. Not overridable: it runs
    /// respond_into() into fresh buffers, so the allocating and the
    /// buffer-reusing responses can never diverge (the batch engine's
    /// bit-identity contract depends on that).
    [[nodiscard]] XyTrace respond(const MultitoneWaveform& stimulus,
                                  std::size_t samples_per_period) const;

    /// The one response every cut implements: writes the x/y samples into
    /// the given buffers (resized to samples_per_period) and sets dt to the
    /// sample spacing. The batch evaluation engine calls it with per-thread
    /// scratch buffers that survive across a whole batch.
    virtual void respond_into(const MultitoneWaveform& stimulus,
                              std::size_t samples_per_period,
                              std::vector<double>& xs, std::vector<double>& ys,
                              double& dt) const = 0;

    /// Capability flag for the stimulus trace cache: true when the x
    /// channel of respond()/respond_into() is exactly the sampled
    /// stimulus (bit for bit, one period from t = 0). The pipeline then
    /// fills x from a shared immutable trace sampled once per job and
    /// asks only for y via respond_y_into() — eliminating one stimulus
    /// sampling per member. BehaviouralCut qualifies (x = stimulus by
    /// construction); SpiceCut does not (its x is a solver-produced node
    /// voltage).
    [[nodiscard]] virtual bool x_is_stimulus() const noexcept { return false; }

    /// y channel only, for cuts with x_is_stimulus(): writes the y
    /// samples (resized to samples_per_period) and sets dt, bit-identical
    /// to the y channel respond_into() produces under the same mode. The
    /// default falls back to respond_into() and discards x, so a custom
    /// cut that sets the capability flag without overriding this stays
    /// correct (merely unaccelerated). mode selects exact or fast_math
    /// sine evaluation; implementations without a closed-form y must
    /// ignore it (fast_math is a no-op outside tone-table sampling).
    virtual void respond_y_into(const MultitoneWaveform& stimulus,
                                std::size_t samples_per_period,
                                std::vector<double>& ys, double& dt,
                                SampleMode mode) const;

    /// Human-readable description for reports.
    [[nodiscard]] virtual std::string description() const = 0;

    /// Exact fingerprint for the golden-signature cache: two cuts with equal
    /// non-empty keys must produce bit-identical responses to any stimulus.
    /// The default (empty) marks the cut as non-cacheable; description() is
    /// NOT a substitute — it rounds values for display.
    [[nodiscard]] virtual std::string cache_key() const { return {}; }
};

/// Exact steady-state Biquad response (x = stimulus, y = filter output).
class BehaviouralCut final : public Cut {
public:
    explicit BehaviouralCut(Biquad filter);

    void respond_into(const MultitoneWaveform& stimulus,
                      std::size_t samples_per_period, std::vector<double>& xs,
                      std::vector<double>& ys, double& dt) const override;
    [[nodiscard]] bool x_is_stimulus() const noexcept override { return true; }
    void respond_y_into(const MultitoneWaveform& stimulus,
                        std::size_t samples_per_period, std::vector<double>& ys,
                        double& dt, SampleMode mode) const override;
    [[nodiscard]] std::string description() const override;
    [[nodiscard]] std::string cache_key() const override;

    [[nodiscard]] const Biquad& filter() const noexcept { return filter_; }

private:
    Biquad filter_;
};

/// Transient-simulated netlist response.
///
/// The netlist is either owned externally (reference constructor — the
/// caller promises it outlives the cut and is not simulated elsewhere) or by
/// the cut itself (owning constructor — the building block of SPICE fault
/// universes, where every cut gets its own deep clone). respond_into() mutates
/// the netlist (stimulus waveform + device transient state), so one instance
/// must never be evaluated from two threads at once; distinct instances over
/// distinct netlists evaluate concurrently without contention (see the Cut
/// contract above). The cut keeps no trajectory: the transient streams
/// through it and only the observed period lands in x/y.
class SpiceCut final : public Cut {
public:
    /// \param netlist        circuit to simulate (kept by reference)
    /// \param input_source   VoltageSource that receives the stimulus
    /// \param x_node,y_node  observed nodes
    /// \param settle_periods stimulus periods discarded before capture
    SpiceCut(spice::Netlist& netlist, std::string input_source, std::string x_node,
             std::string y_node, int settle_periods = 8);

    /// Owning variant: the cut keeps the netlist alive for its lifetime and
    /// is safe to evaluate concurrently with any other SpiceCut.
    SpiceCut(std::unique_ptr<spice::Netlist> netlist, std::string input_source,
             std::string x_node, std::string y_node, int settle_periods = 8);

    void respond_into(const MultitoneWaveform& stimulus,
                      std::size_t samples_per_period, std::vector<double>& xs,
                      std::vector<double>& ys, double& dt) const override;
    [[nodiscard]] std::string description() const override;

    [[nodiscard]] const spice::Netlist& netlist() const noexcept { return *netlist_; }

private:
    std::unique_ptr<spice::Netlist> owned_; ///< set by the owning constructor
    spice::Netlist* netlist_;
    std::string input_source_;
    std::string x_node_;
    std::string y_node_;
    int settle_periods_;
};

} // namespace xysig::filter

#endif // XYSIG_FILTER_CUT_H
