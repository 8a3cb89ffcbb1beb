#include "filter/cut.h"

#include <utility>

#include "common/contracts.h"
#include "common/strings.h"
#include "spice/elements.h"
#include "spice/transient.h"

namespace xysig::filter {

XyTrace Cut::respond(const MultitoneWaveform& stimulus,
                     std::size_t samples_per_period) const {
    std::vector<double> xs;
    std::vector<double> ys;
    double dt = 0.0;
    respond_into(stimulus, samples_per_period, xs, ys, dt);
    return XyTrace(SampledSignal(0.0, dt, std::move(xs)),
                   SampledSignal(0.0, dt, std::move(ys)));
}

void Cut::respond_y_into(const MultitoneWaveform& stimulus,
                         std::size_t samples_per_period, std::vector<double>& ys,
                         double& dt, SampleMode /*mode*/) const {
    // Correct-but-unaccelerated fallback: evaluate both channels and keep
    // y. Cuts that advertise x_is_stimulus() should override this; the
    // exact-mode values still match respond_into's y channel bit for bit,
    // which is all the pipeline's trace-cache path requires. The mode is
    // deliberately dropped — a cut without a closed-form y has nothing
    // fast_math may legally change.
    thread_local std::vector<double> xs_discard;
    respond_into(stimulus, samples_per_period, xs_discard, ys, dt);
}

BehaviouralCut::BehaviouralCut(Biquad filter) : filter_(std::move(filter)) {}

void BehaviouralCut::respond_into(const MultitoneWaveform& stimulus,
                                  std::size_t samples_per_period,
                                  std::vector<double>& xs, std::vector<double>& ys,
                                  double& dt) const {
    XYSIG_EXPECTS(samples_per_period >= 16);
    const double period = stimulus.period();
    SampledSignal::sample_waveform_into(stimulus, 0.0, period, samples_per_period,
                                        xs);
    respond_y_into(stimulus, samples_per_period, ys, dt, SampleMode::exact);
}

void BehaviouralCut::respond_y_into(const MultitoneWaveform& stimulus,
                                    std::size_t samples_per_period,
                                    std::vector<double>& ys, double& dt,
                                    SampleMode mode) const {
    XYSIG_EXPECTS(samples_per_period >= 16);
    const double period = stimulus.period();
    const MultitoneWaveform out = filter_.steady_state_output(stimulus);
    SampledSignal::sample_waveform_into(out, 0.0, period, samples_per_period, ys,
                                        mode);
    dt = period / static_cast<double>(samples_per_period);
}

std::string BehaviouralCut::description() const {
    return "behavioural biquad f0=" + format_double(filter_.design().f0, 6) +
           " Hz, Q=" + format_double(filter_.design().q, 4);
}

std::string BehaviouralCut::cache_key() const {
    // Exact (hexfloat) design parameters: equal keys <=> bit-identical
    // steady-state responses.
    const BiquadDesign& d = filter_.design();
    return "biquad{f0=" + format_double_exact(d.f0) +
           ",q=" + format_double_exact(d.q) +
           ",g=" + format_double_exact(d.gain) +
           ",k=" + std::to_string(static_cast<int>(d.kind)) + "}";
}

SpiceCut::SpiceCut(spice::Netlist& netlist, std::string input_source,
                   std::string x_node, std::string y_node, int settle_periods)
    : netlist_(&netlist), input_source_(std::move(input_source)),
      x_node_(std::move(x_node)), y_node_(std::move(y_node)),
      settle_periods_(settle_periods) {
    XYSIG_EXPECTS(settle_periods >= 1);
}

SpiceCut::SpiceCut(std::unique_ptr<spice::Netlist> netlist,
                   std::string input_source, std::string x_node,
                   std::string y_node, int settle_periods)
    : owned_(std::move(netlist)), netlist_(owned_.get()),
      input_source_(std::move(input_source)), x_node_(std::move(x_node)),
      y_node_(std::move(y_node)), settle_periods_(settle_periods) {
    XYSIG_EXPECTS(owned_ != nullptr);
    XYSIG_EXPECTS(settle_periods >= 1);
}

void SpiceCut::respond_into(const MultitoneWaveform& stimulus,
                            std::size_t samples_per_period,
                            std::vector<double>& xs, std::vector<double>& ys,
                            double& dt) const {
    XYSIG_EXPECTS(samples_per_period >= 16);
    const double period = stimulus.period();
    auto& src = netlist_->get<spice::VoltageSource>(input_source_);
    src.set_waveform(stimulus);

    spice::TransientOptions opts;
    // In double: settle_periods_ + 1 overflows int at INT_MAX.
    opts.t_stop = (static_cast<double>(settle_periods_) + 1.0) * period;
    opts.dt = period / static_cast<double>(samples_per_period);

    // Copy the final period straight out of the stream, re-based to t = 0
    // (the stimulus is T-periodic, so its phase at k*T equals its phase
    // at 0).
    const std::size_t first =
        static_cast<std::size_t>(settle_periods_) * samples_per_period;
    const spice::NodeId xn = netlist_->find_node(x_node_);
    const spice::NodeId yn = netlist_->find_node(y_node_);
    xs.resize(samples_per_period);
    ys.resize(samples_per_period);
    std::size_t captured = 0;
    (void)spice::stream_transient(
        *netlist_, opts,
        [&](std::size_t step, double, std::span<const double> unknowns) {
            if (step < first || step - first >= samples_per_period)
                return;
            xs[step - first] = spice::node_voltage(unknowns, xn);
            ys[step - first] = spice::node_voltage(unknowns, yn);
            ++captured;
        });
    XYSIG_ENSURES(captured == samples_per_period); // the run covers the window
    dt = opts.dt;
}

std::string SpiceCut::description() const {
    return "spice netlist CUT (x=" + x_node_ + ", y=" + y_node_ + ")";
}

} // namespace xysig::filter
