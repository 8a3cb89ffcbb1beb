#ifndef XYSIG_SPICE_ELEMENTS_H
#define XYSIG_SPICE_ELEMENTS_H

/// \file elements.h
/// Linear circuit elements and independent sources.

#include <memory>

#include "signal/waveform.h"
#include "spice/device.h"

namespace xysig::spice {

/// Linear resistor between two nodes.
class Resistor final : public Device {
public:
    Resistor(std::string name, NodeId n1, NodeId n2, double resistance);

    [[nodiscard]] std::unique_ptr<Device> clone() const override;
    void stamp(StampContext& ctx) const override;

    [[nodiscard]] double resistance() const noexcept { return resistance_; }
    /// Component value change (Monte-Carlo / defect injection). r > 0.
    void set_resistance(double r);

private:
    double resistance_;
};

/// Linear capacitor. Open in DC; trapezoidal/backward-Euler companion in
/// transient; j*omega*C admittance in AC.
class Capacitor final : public Device {
public:
    Capacitor(std::string name, NodeId n1, NodeId n2, double capacitance);

    [[nodiscard]] std::unique_ptr<Device> clone() const override;
    void stamp(StampContext& ctx) const override;
    void stamp_ac(AcStampContext& ctx) const override;
    void begin_transient(std::span<const double> op_solution) override;
    void step_accepted(std::span<const double> x, double time, double dt,
                       Integrator integrator) override;

    [[nodiscard]] double capacitance() const noexcept { return capacitance_; }
    void set_capacitance(double c);

private:
    double capacitance_;
    double v_prev_ = 0.0; ///< branch voltage at the last accepted step
    double i_prev_ = 0.0; ///< branch current at the last accepted step
};

/// Linear inductor; one extra unknown (branch current). Short in DC.
class Inductor final : public Device {
public:
    Inductor(std::string name, NodeId n1, NodeId n2, double inductance);

    [[nodiscard]] std::unique_ptr<Device> clone() const override;
    [[nodiscard]] int extra_variable_count() const override { return 1; }
    void stamp(StampContext& ctx) const override;
    void stamp_ac(AcStampContext& ctx) const override;
    void begin_transient(std::span<const double> op_solution) override;
    void step_accepted(std::span<const double> x, double time, double dt,
                       Integrator integrator) override;

    [[nodiscard]] double inductance() const noexcept { return inductance_; }

private:
    double inductance_;
    double i_prev_ = 0.0;
    double v_prev_ = 0.0;
};

/// Independent voltage source driven by a Waveform; one extra unknown (its
/// branch current, flowing from n+ through the source to n-).
class VoltageSource final : public Device {
public:
    VoltageSource(std::string name, NodeId np, NodeId nn, const Waveform& wave);
    VoltageSource(std::string name, NodeId np, NodeId nn, double dc_level);
    /// Deep copy: the drive waveform is cloned, never shared.
    VoltageSource(const VoltageSource& other);

    [[nodiscard]] std::unique_ptr<Device> clone() const override;
    [[nodiscard]] int extra_variable_count() const override { return 1; }
    void stamp(StampContext& ctx) const override;
    void stamp_ac(AcStampContext& ctx) const override;

    /// Replaces the drive waveform (DC sweeps, stimulus changes).
    void set_waveform(const Waveform& wave);
    [[nodiscard]] const Waveform& waveform() const noexcept { return *wave_; }

    /// AC small-signal magnitude/phase (only meaningful for AC analysis).
    void set_ac(double magnitude, double phase_rad = 0.0) noexcept;

    /// Branch current in a solution vector (positive n+ -> n- through source).
    [[nodiscard]] double current(std::span<const double> x) const;

private:
    std::unique_ptr<Waveform> wave_;
    double ac_magnitude_ = 0.0;
    double ac_phase_ = 0.0;
};

/// Independent current source; current flows from n+ through the source to
/// n- (SPICE convention), i.e. it injects into the n- node.
class CurrentSource final : public Device {
public:
    CurrentSource(std::string name, NodeId np, NodeId nn, const Waveform& wave);
    CurrentSource(std::string name, NodeId np, NodeId nn, double dc_level);
    /// Deep copy: the drive waveform is cloned, never shared.
    CurrentSource(const CurrentSource& other);

    [[nodiscard]] std::unique_ptr<Device> clone() const override;
    void stamp(StampContext& ctx) const override;

private:
    std::unique_ptr<Waveform> wave_;
};

/// Voltage-controlled voltage source: v(p,n) = gain * v(cp,cn).
class Vcvs final : public Device {
public:
    Vcvs(std::string name, NodeId p, NodeId n, NodeId cp, NodeId cn, double gain);

    [[nodiscard]] std::unique_ptr<Device> clone() const override;
    [[nodiscard]] int extra_variable_count() const override { return 1; }
    void stamp(StampContext& ctx) const override;

    [[nodiscard]] double gain() const noexcept { return gain_; }

private:
    double gain_;
};

/// Voltage-controlled current source: i(p->n) = gm * v(cp,cn).
class Vccs final : public Device {
public:
    Vccs(std::string name, NodeId p, NodeId n, NodeId cp, NodeId cn, double gm);

    [[nodiscard]] std::unique_ptr<Device> clone() const override;
    void stamp(StampContext& ctx) const override;

private:
    double gm_;
};

/// Ideal single-ended opamp (nullor): enforces v(inp) == v(inn) with its
/// output current as the balancing unknown. Used by the Tow-Thomas Biquad.
class IdealOpamp final : public Device {
public:
    IdealOpamp(std::string name, NodeId inp, NodeId inn, NodeId out);

    [[nodiscard]] std::unique_ptr<Device> clone() const override;
    [[nodiscard]] int extra_variable_count() const override { return 1; }
    void stamp(StampContext& ctx) const override;
};

} // namespace xysig::spice

#endif // XYSIG_SPICE_ELEMENTS_H
