#ifndef XYSIG_SUPPORT_NDF_SAMPLED_H
#define XYSIG_SUPPORT_NDF_SAMPLED_H

/// \file ndf_sampled.h
/// Riemann-sum NDF: the tests' independent cross-check of core::ndf().

#include <cstddef>

#include "capture/chronogram.h"

namespace xysig::core {

/// NDF from n midpoint samples of the Hamming distance over the smaller
/// period; converges to ndf().
[[nodiscard]] double ndf_sampled(const capture::Chronogram& observed,
                                 const capture::Chronogram& golden, std::size_t n);

} // namespace xysig::core

#endif // XYSIG_SUPPORT_NDF_SAMPLED_H
