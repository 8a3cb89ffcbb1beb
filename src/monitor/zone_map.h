#ifndef XYSIG_MONITOR_ZONE_MAP_H
#define XYSIG_MONITOR_ZONE_MAP_H

/// \file zone_map.h
/// Enumeration of the zones a monitor bank induces on the plane (kPlaneLo to
/// kPlaneHi on both axes, boundary.h), with the adjacency structure between
/// zones. Reproduces Fig. 6's codified map and checks the paper's claim
/// that neighbouring zones differ in exactly one bit (each generic boundary
/// crossing flips one monitor).

#include <map>
#include <set>
#include <vector>

#include "monitor/monitor_bank.h"

namespace xysig::monitor {

/// One zone: its code and a summary of the cells that map to it.
struct Zone {
    unsigned code = 0;
    std::size_t cell_count = 0; ///< grid cells carrying this code
    double rep_x = 0.0;         ///< centroid of those cells
    double rep_y = 0.0;
};

/// Rasterised zone map over the plane.
class ZoneMap {
public:
    /// Samples the bank on a resolution x resolution grid of cell centres;
    /// resolution >= 8.
    ZoneMap(const MonitorBank& bank, std::size_t resolution);

    /// Zones sorted by code.
    [[nodiscard]] const std::vector<Zone>& zones() const noexcept { return zones_; }
    [[nodiscard]] std::size_t zone_count() const noexcept { return zones_.size(); }
    [[nodiscard]] const Zone& zone(unsigned code) const;

    /// Pairs of codes that share at least one grid edge (a < b order).
    [[nodiscard]] const std::set<std::pair<unsigned, unsigned>>& adjacency() const
        noexcept {
        return adjacency_;
    }

    /// Fraction of adjacent grid-cell pairs with different codes whose codes
    /// differ in more than one bit. Exactly 0 in the ideal continuum; on a
    /// raster a tiny fraction can appear where a cell edge jumps across a
    /// curve intersection, so tests assert "< epsilon" rather than zero.
    [[nodiscard]] double gray_violation_fraction() const noexcept {
        return gray_violation_fraction_;
    }

    /// Zone code of the cell containing (x, y).
    [[nodiscard]] unsigned code_at(double x, double y) const;

private:
    std::size_t resolution_;
    std::vector<unsigned> grid_; // row-major, row = y index
    std::vector<Zone> zones_;
    std::set<std::pair<unsigned, unsigned>> adjacency_;
    double gray_violation_fraction_ = 0.0;
};

} // namespace xysig::monitor

#endif // XYSIG_MONITOR_ZONE_MAP_H
