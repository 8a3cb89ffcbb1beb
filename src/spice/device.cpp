#include "spice/device.h"

#include "common/contracts.h"

namespace xysig::spice {

Device::Device(std::string name, std::vector<NodeId> nodes)
    : name_(std::move(name)), nodes_(std::move(nodes)) {
    XYSIG_EXPECTS(!name_.empty());
    for (const NodeId n : nodes_)
        XYSIG_EXPECTS(n >= 0);
}

void Device::stamp_ac(AcStampContext&) const {}

void Device::begin_transient(std::span<const double>) {}

void Device::step_accepted(std::span<const double>, double, double, Integrator) {}

} // namespace xysig::spice
