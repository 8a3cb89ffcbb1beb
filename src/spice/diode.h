#ifndef XYSIG_SPICE_DIODE_H
#define XYSIG_SPICE_DIODE_H

/// \file diode.h
/// Junction diode with exponential I-V and overflow-safe linear continuation.

#include "spice/device.h"

namespace xysig::spice {

struct DiodeParams {
    double is = 1e-14;      ///< saturation current (A)
    double n_ideality = 1.0;///< ideality factor
};

/// Standard exponential diode. Above an internal critical voltage the
/// exponential is continued linearly (first-order Taylor) so huge Newton
/// overshoots cannot overflow; the continuation is C1 so convergence is
/// unaffected once the iterate returns to the physical region.
class Diode final : public Device {
public:
    /// Node order: anode, cathode.
    Diode(std::string name, NodeId anode, NodeId cathode, DiodeParams params = {});

    [[nodiscard]] std::unique_ptr<Device> clone() const override {
        return std::make_unique<Diode>(*this);
    }

    void stamp(StampContext& ctx) const override;

    /// Current/conductance at a given junction voltage (exposed for tests).
    struct Eval {
        double id;
        double gd;
    };
    [[nodiscard]] Eval evaluate(double vd) const;

private:
    DiodeParams params_;
};

} // namespace xysig::spice

#endif // XYSIG_SPICE_DIODE_H
