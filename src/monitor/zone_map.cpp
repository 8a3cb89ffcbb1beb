#include "monitor/zone_map.h"

#include <algorithm>
#include <bit>

#include "common/contracts.h"
#include "common/math_util.h"

namespace xysig::monitor {

ZoneMap::ZoneMap(const MonitorBank& bank, std::size_t resolution)
    : resolution_(resolution) {
    XYSIG_EXPECTS(resolution >= 8);

    const double cell = (kPlaneHi - kPlaneLo) / static_cast<double>(resolution_);
    grid_.resize(resolution_ * resolution_);

    struct Acc {
        std::size_t count = 0;
        double sum_x = 0.0;
        double sum_y = 0.0;
    };
    std::map<unsigned, Acc> acc;

    for (std::size_t j = 0; j < resolution_; ++j) {
        const double y = kPlaneLo + (static_cast<double>(j) + 0.5) * cell;
        for (std::size_t i = 0; i < resolution_; ++i) {
            const double x = kPlaneLo + (static_cast<double>(i) + 0.5) * cell;
            const unsigned code = bank.code(x, y);
            grid_[j * resolution_ + i] = code;
            Acc& a = acc[code];
            ++a.count;
            a.sum_x += x;
            a.sum_y += y;
        }
    }

    zones_.reserve(acc.size());
    for (const auto& [code, a] : acc) {
        Zone z;
        z.code = code;
        z.cell_count = a.count;
        z.rep_x = a.sum_x / static_cast<double>(a.count);
        z.rep_y = a.sum_y / static_cast<double>(a.count);
        zones_.push_back(z);
    }

    // Adjacency + Gray property over horizontal and vertical cell edges.
    std::size_t boundary_edges = 0;
    std::size_t violations = 0;
    auto visit_edge = [&](unsigned a, unsigned b) {
        if (a == b)
            return;
        ++boundary_edges;
        adjacency_.insert({std::min(a, b), std::max(a, b)});
        if (std::popcount(a ^ b) > 1)
            ++violations;
    };
    for (std::size_t j = 0; j < resolution_; ++j) {
        for (std::size_t i = 0; i + 1 < resolution_; ++i)
            visit_edge(grid_[j * resolution_ + i], grid_[j * resolution_ + i + 1]);
    }
    for (std::size_t j = 0; j + 1 < resolution_; ++j) {
        for (std::size_t i = 0; i < resolution_; ++i)
            visit_edge(grid_[j * resolution_ + i], grid_[(j + 1) * resolution_ + i]);
    }
    gray_violation_fraction_ =
        boundary_edges == 0
            ? 0.0
            : static_cast<double>(violations) / static_cast<double>(boundary_edges);
}

const Zone& ZoneMap::zone(unsigned code) const {
    const auto it = std::find_if(zones_.begin(), zones_.end(),
                                 [&](const Zone& z) { return z.code == code; });
    XYSIG_EXPECTS(it != zones_.end());
    return *it;
}

unsigned ZoneMap::code_at(double x, double y) const {
    const double fx = (x - kPlaneLo) / (kPlaneHi - kPlaneLo);
    const double fy = (y - kPlaneLo) / (kPlaneHi - kPlaneLo);
    XYSIG_EXPECTS(fx >= 0.0 && fx <= 1.0 && fy >= 0.0 && fy <= 1.0);
    const auto i = std::min(resolution_ - 1,
                            static_cast<std::size_t>(fx * static_cast<double>(resolution_)));
    const auto j = std::min(resolution_ - 1,
                            static_cast<std::size_t>(fy * static_cast<double>(resolution_)));
    return grid_[j * resolution_ + i];
}

} // namespace xysig::monitor
