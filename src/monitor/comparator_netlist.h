#ifndef XYSIG_MONITOR_COMPARATOR_NETLIST_H
#define XYSIG_MONITOR_COMPARATOR_NETLIST_H

/// \file comparator_netlist.h
/// Transistor-level netlist of the paper's Fig. 2 monitor: four nMOS input
/// devices (M1, M2 | M3, M4, source-grounded), pMOS active loads (M5, M8)
/// and a cross-coupled pMOS pair (M6, M7) boosting the gain. Used to
/// cross-validate the closed-form MosCurrentBoundary: away from the control
/// curve, sign(v(out2) - v(out1)) of the solved circuit must equal the
/// boundary's current-difference sign.
///
/// The pMOS loads are 2 um wide with |Vt| = 0.30 V and kp = 100 uA/V^2
/// (lower hole mobility), and the cross-coupled pair is 0.8 times as wide.
/// The paper's silicon uses equal sizes (regenerative limit) plus a
/// high-gain output stage; the simulated pair stays at 0.8 so the DC
/// solution stays unique.

#include <string>

#include "monitor/mos_boundary.h"
#include "spice/netlist.h"

namespace xysig::monitor {

/// Supply voltage of the comparator (V).
inline constexpr double kComparatorVdd = 1.2;

/// A built comparator with the handles needed to drive and read it.
struct ComparatorCircuit {
    spice::Netlist netlist;
    std::string v_inputs[4] = {"V1", "V2", "V3", "V4"};
    std::string out_left = "vout1";  ///< drains of M1, M2
    std::string out_right = "vout2"; ///< drains of M3, M4
    MonitorConfig config;
};

/// Builds the Fig. 2 circuit for a monitor configuration. The four input
/// sources are created at 0 V; drive them per plane point before solving.
[[nodiscard]] ComparatorCircuit build_comparator(const MonitorConfig& config);

/// Solves the comparator DC point with the inputs set for (x, y) and
/// returns the raw decision: true when v(out2) > v(out1), which corresponds
/// to I_left > I_right (more left current pulls out1 low). Compare with
/// MosCurrentBoundary::current_difference's sign.
[[nodiscard]] bool comparator_decision(ComparatorCircuit& ckt, double x, double y);

/// Differential output voltage v(out2) - v(out1) at (x, y).
[[nodiscard]] double comparator_differential(ComparatorCircuit& ckt, double x,
                                             double y);

} // namespace xysig::monitor

#endif // XYSIG_MONITOR_COMPARATOR_NETLIST_H
