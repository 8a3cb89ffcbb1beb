#include "core/paper_setup.h"

#include "common/math_util.h"

namespace xysig::core {

MultitoneWaveform paper_stimulus() {
    return MultitoneWaveform(0.5, {{0.3, 5e3, 0.0}, {0.15, 15e3, kPi}});
}

filter::Biquad paper_biquad() {
    filter::BiquadDesign d;
    d.f0 = 14e3;
    d.q = 1.0;
    d.gain = 1.0;
    d.kind = filter::BiquadKind::low_pass;
    return filter::Biquad(d);
}

filter::TowThomasCircuit paper_tow_thomas() {
    return filter::build_tow_thomas(
        filter::TowThomasDesign::from_biquad(paper_biquad().design()));
}

} // namespace xysig::core
