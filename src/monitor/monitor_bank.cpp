#include "monitor/monitor_bank.h"

#include "common/contracts.h"

namespace xysig::monitor {

void MonitorBank::add(std::unique_ptr<Boundary> boundary) {
    XYSIG_EXPECTS(boundary != nullptr);
    XYSIG_EXPECTS(monitors_.size() < 32);
    monitors_.push_back(std::move(boundary));
}

MonitorBank::MonitorBank(const MonitorBank& other) {
    monitors_.reserve(other.monitors_.size());
    for (const auto& m : other.monitors_)
        monitors_.push_back(m->clone());
}

MonitorBank& MonitorBank::operator=(const MonitorBank& other) {
    if (this != &other) {
        MonitorBank tmp(other);
        monitors_ = std::move(tmp.monitors_);
    }
    return *this;
}

const Boundary& MonitorBank::monitor(std::size_t i) const {
    XYSIG_EXPECTS(i < monitors_.size());
    return *monitors_[i];
}

std::string MonitorBank::fingerprint() const {
    std::string fp;
    for (const auto& m : monitors_) {
        const std::string part = m->fingerprint();
        XYSIG_EXPECTS(!part.empty());
        fp += part + "/";
    }
    return fp;
}

unsigned MonitorBank::code(double x, double y) const {
    XYSIG_EXPECTS(!monitors_.empty());
    unsigned c = 0;
    const std::size_t n = monitors_.size();
    for (std::size_t i = 0; i < n; ++i) {
        if (monitors_[i]->side(x, y))
            c |= 1u << (n - 1 - i); // monitor 0 = MSB (paper's Fig. 6 order)
    }
    return c;
}

} // namespace xysig::monitor
