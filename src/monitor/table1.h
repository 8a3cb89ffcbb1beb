#ifndef XYSIG_MONITOR_TABLE1_H
#define XYSIG_MONITOR_TABLE1_H

/// \file table1.h
/// The paper's TABLE I: the six monitor input configurations whose control
/// curves are shown in Fig. 4 and whose bank generates the Fig. 6 zone map.
///
///   #   M1      M2      M3      M4      V1      V2      V3      V4
///   1   3000    600     600     3000    Y       0.2     X       0.6
///   2   3000    600     600     3000    0.6     Y       0.2     X
///   3   1800    1800    1800    1800    Y       X       0.55    0.55
///   4   1800    1800    1800    1800    Y       X       0.3     0.3
///   5   1800    1800    1800    1800    Y       X       0.75    0.75
///   6   1800    1800    1800    1800    Y       0       X       0
///
/// (widths in nm, L = 180 nm, bias voltages in volts)

#include <vector>

#include "monitor/monitor_bank.h"
#include "monitor/mos_boundary.h"

namespace xysig::monitor {

/// Configuration of one Table I row; row in [1, 6]. Every row uses the
/// device template and drain bias that MonitorConfig defaults to: the
/// 65 nm-flavoured nMOS EKV device of spice::MosParams (vt0 = 0.30 V,
/// kp = 250 uA/V^2, n = 1.35, lambda = 0.1 /V, L = 180 nm; W is per leg)
/// evaluated at vds = 0.6 V.
[[nodiscard]] MonitorConfig table1_config(int row);

/// All six configurations in row order.
[[nodiscard]] std::vector<MonitorConfig> table1_configs();

/// The full six-monitor bank (monitor i = Table I row i+1 = bit i from MSB).
[[nodiscard]] MonitorBank build_table1_bank();

/// Straight-line baseline bank ([12],[13]): six lines approximating the
/// Table I curves (least-squares fit of each traced control curve inside
/// the unit window), used by the linear-vs-nonlinear ablation.
[[nodiscard]] MonitorBank build_linear_approximation_bank();

} // namespace xysig::monitor

#endif // XYSIG_MONITOR_TABLE1_H
