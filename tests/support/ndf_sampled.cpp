#include "support/ndf_sampled.h"

#include <algorithm>

#include "common/contracts.h"
#include "core/ndf.h"

namespace xysig::core {

double ndf_sampled(const capture::Chronogram& observed,
                   const capture::Chronogram& golden, std::size_t n) {
    XYSIG_EXPECTS(n >= 2);
    const double period = std::min(observed.period(), golden.period());
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double t =
            (static_cast<double>(i) + 0.5) / static_cast<double>(n) * period;
        acc += hamming_distance(observed.code_at(t), golden.code_at(t));
    }
    return acc / static_cast<double>(n);
}

} // namespace xysig::core
