#ifndef XYSIG_MONITOR_MONITOR_BANK_H
#define XYSIG_MONITOR_MONITOR_BANK_H

/// \file monitor_bank.h
/// A bank of n monitors producing the n-bit zone code for every analog
/// (x, y) location. Bit ordering follows the paper's Fig. 6 notation:
/// monitor 1 is the most significant bit, so code 011110 (decimal 30) means
/// monitors 2..5 read "1".

#include <memory>
#include <vector>

#include "monitor/boundary.h"

namespace xysig::monitor {

class MonitorBank {
public:
    MonitorBank() = default;

    /// Monitors are indexed in insertion order; monitor 0 is the MSB.
    void add(std::unique_ptr<Boundary> boundary);

    MonitorBank(const MonitorBank& other);
    MonitorBank& operator=(const MonitorBank& other);
    MonitorBank(MonitorBank&&) noexcept = default;
    MonitorBank& operator=(MonitorBank&&) noexcept = default;

    [[nodiscard]] std::size_t size() const noexcept { return monitors_.size(); }
    [[nodiscard]] const Boundary& monitor(std::size_t i) const;

    /// Zone code of a plane point. At most 32 monitors.
    [[nodiscard]] unsigned code(double x, double y) const;

    /// Exact identity of the whole bank (ordered concatenation of monitor
    /// fingerprints): two banks with equal fingerprints produce identical
    /// zone codes everywhere. Requires every monitor to fingerprint itself,
    /// as the types a pipeline's compiled bank accepts all do; a monitor
    /// without one throws ContractError.
    [[nodiscard]] std::string fingerprint() const;

private:
    std::vector<std::unique_ptr<Boundary>> monitors_;
};

} // namespace xysig::monitor

#endif // XYSIG_MONITOR_MONITOR_BANK_H
