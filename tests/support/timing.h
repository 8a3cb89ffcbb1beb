#ifndef XYSIG_SUPPORT_TIMING_H
#define XYSIG_SUPPORT_TIMING_H

/// \file timing.h
/// Wall-clock stopwatch shared by the bench drivers' scaling reports.

#include <chrono>
#include <functional>

namespace xysig {

/// Seconds of wall-clock time (steady clock) taken by one call of fn.
inline double seconds_of(const std::function<void()>& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

} // namespace xysig

#endif // XYSIG_SUPPORT_TIMING_H
