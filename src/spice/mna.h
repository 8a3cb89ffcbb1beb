#ifndef XYSIG_SPICE_MNA_H
#define XYSIG_SPICE_MNA_H

/// \file mna.h
/// Ground-aware stamping into the modified-nodal-analysis system.
///
/// Unknown ordering: node voltages for nodes 1..N-1 first (index = id - 1),
/// then one slot per extra branch variable (voltage-source currents, opamp
/// output currents, inductor currents). Ground rows/columns are skipped by
/// the stamping helpers, which is what keeps device code free of special
/// cases.

#include <complex>
#include <span>
#include <vector>

#include "common/matrix.h"
#include "spice/types.h"

namespace xysig::spice {

/// Voltage of `node` in an unknown vector of the ordering above: 0 for
/// ground, unknown id - 1 otherwise. T is double for a DC or transient
/// solution and std::complex<double> for an AC one.
template <typename T>
[[nodiscard]] T node_voltage(std::span<const T> unknowns, NodeId node) {
    return node == kGround ? T{} : unknowns[static_cast<std::size_t>(node) - 1];
}

/// Stamping facade over an MNA matrix/RHS: real for the Newton system,
/// complex for AC.
template <typename T>
class Assembler {
public:
    Assembler(Matrix<T>& a, std::vector<T>& b, std::size_t node_count)
        : a_(&a), b_(&b), node_count_(node_count) {
        XYSIG_EXPECTS(a.rows() == a.cols());
        XYSIG_EXPECTS(a.rows() == b.size());
        XYSIG_EXPECTS(a.rows() >= node_count - 1);
    }

    /// Unknown index of a node; -1 for ground.
    [[nodiscard]] int index_of(NodeId n) const {
        XYSIG_EXPECTS(n >= 0 && static_cast<std::size_t>(n) < node_count_);
        return static_cast<int>(n) - 1;
    }

    /// Conductance g between two nodes (standard 4-point stamp).
    void conductance(NodeId n1, NodeId n2, T g) {
        entry_node(n1, n1, g);
        entry_node(n2, n2, g);
        entry_node(n1, n2, -g);
        entry_node(n2, n1, -g);
    }

    /// Transconductance: current gm*(v(cp)-v(cn)) flowing from op into on
    /// (i.e. out of node op, into node on inside the device).
    void transconductance(NodeId op, NodeId on, NodeId cp, NodeId cn, T gm) {
        entry_node(op, cp, gm);
        entry_node(op, cn, -gm);
        entry_node(on, cp, -gm);
        entry_node(on, cn, gm);
    }

    /// Injects current i INTO node n (adds to the RHS).
    void current_into(NodeId n, T i) {
        const int r = index_of(n);
        if (r >= 0)
            (*b_)[static_cast<std::size_t>(r)] += i;
    }

    /// Raw matrix entry by node pair; either may be ground (skipped).
    void entry_node(NodeId row, NodeId col, T v) {
        const int r = index_of(row);
        const int c = index_of(col);
        if (r >= 0 && c >= 0)
            (*a_)(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) += v;
    }

    /// Raw matrix entry by unknown index (for extra branch variables).
    void entry_raw(int row, int col, T v) {
        XYSIG_EXPECTS(row >= 0 && col >= 0);
        (*a_)(static_cast<std::size_t>(row), static_cast<std::size_t>(col)) += v;
    }

    /// Matrix entry with a node row and a raw (extra-variable) column.
    void entry_node_raw(NodeId row, int col, T v) {
        const int r = index_of(row);
        if (r >= 0)
            entry_raw(r, col, v);
    }

    /// Matrix entry with a raw row and a node column.
    void entry_raw_node(int row, NodeId col, T v) {
        const int c = index_of(col);
        if (c >= 0)
            entry_raw(row, c, v);
    }

    /// RHS contribution on a raw row.
    void rhs_raw(int row, T v) {
        XYSIG_EXPECTS(row >= 0);
        (*b_)[static_cast<std::size_t>(row)] += v;
    }

private:
    Matrix<T>* a_;
    std::vector<T>* b_;
    std::size_t node_count_;
};

using RealAssembler = Assembler<double>;
using ComplexAssembler = Assembler<std::complex<double>>;

} // namespace xysig::spice

#endif // XYSIG_SPICE_MNA_H
