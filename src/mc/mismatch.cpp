#include "mc/mismatch.h"

#include <cmath>

#include "common/contracts.h"

namespace xysig::mc {

double sigma_vt(double w, double l) {
    XYSIG_EXPECTS(w > 0.0 && l > 0.0);
    return kAvt / std::sqrt(w * l);
}

double sigma_beta_rel(double w, double l) {
    XYSIG_EXPECTS(w > 0.0 && l > 0.0);
    return kAbeta / std::sqrt(w * l);
}

ProcessSample sample_process(Rng& rng) {
    ProcessSample s;
    s.delta_vt0 = rng.normal(0.0, kSigmaVt0);
    s.kp_scale = 1.0 + rng.normal(0.0, kSigmaKpRel);
    return s;
}

} // namespace xysig::mc
