#ifndef XYSIG_COMMON_MATRIX_H
#define XYSIG_COMMON_MATRIX_H

/// \file matrix.h
/// Dense row-major matrix and LU solver used by the MNA engine.
///
/// The matrices arising from the circuits in this project are small (tens of
/// unknowns), so a dense LU with partial pivoting is both simpler and faster
/// than a sparse solver at this scale. The template parameter supports both
/// double (DC/transient) and std::complex<double> (AC analysis).

#include <algorithm>
#include <complex>
#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/contracts.h"
#include "common/error.h"

namespace xysig {

/// Dense row-major matrix over T (double or std::complex<double>).
template <typename T>
class Matrix {
public:
    Matrix() = default;

    Matrix(std::size_t rows, std::size_t cols, T init = T{})
        : rows_(rows), cols_(cols), data_(rows * cols, init) {}

    [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
    [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

    [[nodiscard]] T& operator()(std::size_t r, std::size_t c) {
        XYSIG_EXPECTS(r < rows_ && c < cols_);
        return data_[r * cols_ + c];
    }
    [[nodiscard]] const T& operator()(std::size_t r, std::size_t c) const {
        XYSIG_EXPECTS(r < rows_ && c < cols_);
        return data_[r * cols_ + c];
    }

    /// The rows() * cols() elements, row after row; row r starts at
    /// data() + r * cols().
    [[nodiscard]] T* data() noexcept { return data_.data(); }
    [[nodiscard]] const T* data() const noexcept { return data_.data(); }

    /// Sets every element to value, keeping the storage (an MNA workspace
    /// re-zeroes its matrix this way at every Newton iteration).
    void fill(T value) { std::fill(data_.begin(), data_.end(), value); }

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<T> data_;
};

namespace detail {
inline double lu_abs(double v) noexcept { return v < 0 ? -v : v; }
inline double lu_abs(const std::complex<double>& v) noexcept { return std::abs(v); }
} // namespace detail

/// Pivot magnitude below which a matrix is singular to working precision.
inline constexpr double kLuPivotTolerance = 1e-13;

/// The column at which an LU factorisation found no usable pivot, and the
/// largest magnitude it found there.
struct SingularPivot {
    std::size_t column = 0;
    double magnitude = 0.0;
};

/// LU decomposition with partial pivoting (Doolittle), in place: afterwards
/// the strict lower triangle of `a` holds the unit-lower factor, the rest the
/// upper factor, and row i holds original row perm[i]. Returns the first
/// column whose best pivot is below kLuPivotTolerance (a and perm are then
/// only partly factorised), or nothing on success. The element and operation
/// order is fixed, so the factors are a function of a's bits alone.
template <typename T>
[[nodiscard]] std::optional<SingularPivot> lu_factor_in_place(
    Matrix<T>& a, std::vector<std::size_t>& perm) {
    XYSIG_EXPECTS(a.rows() == a.cols() && perm.size() == a.rows());
    const std::size_t n = a.rows();
    T* const m = a.data();
    for (std::size_t i = 0; i < n; ++i)
        perm[i] = i;

    for (std::size_t k = 0; k < n; ++k) {
        T* const row_k = m + k * n;
        // Partial pivoting: pick the largest magnitude in column k; the
        // first maximum wins.
        std::size_t pivot_row = k;
        double best = detail::lu_abs(row_k[k]);
        for (std::size_t r = k + 1; r < n; ++r) {
            const double mag = detail::lu_abs(m[r * n + k]);
            if (mag > best) {
                best = mag;
                pivot_row = r;
            }
        }
        if (best < kLuPivotTolerance)
            return SingularPivot{k, best};
        if (pivot_row != k) {
            std::swap_ranges(row_k, row_k + n, m + pivot_row * n);
            std::swap(perm[k], perm[pivot_row]);
        }
        const T pivot = row_k[k];
        for (std::size_t r = k + 1; r < n; ++r) {
            T* const row_r = m + r * n;
            const T factor = row_r[k] / pivot;
            row_r[k] = factor;
            for (std::size_t c = k + 1; c < n; ++c)
                row_r[c] -= factor * row_k[c];
        }
    }
    return std::nullopt;
}

/// Solves A x = b into x, given the factors and permutation that
/// lu_factor_in_place left for A. x must not overlap b.
template <typename T>
void solve_into(const Matrix<T>& lu, const std::vector<std::size_t>& perm,
                std::span<const T> b, std::span<T> x) {
    const std::size_t n = lu.rows();
    XYSIG_EXPECTS(lu.cols() == n && perm.size() == n && b.size() == n &&
                  x.size() == n);
    const T* const m = lu.data();
    // Apply permutation, then forward substitution (unit lower factor).
    for (std::size_t i = 0; i < n; ++i) {
        const T* const row = m + i * n;
        T acc = b[perm[i]];
        for (std::size_t j = 0; j < i; ++j)
            acc -= row[j] * x[j];
        x[i] = acc;
    }
    // Back substitution.
    for (std::size_t ii = n; ii-- > 0;) {
        const T* const row = m + ii * n;
        T acc = x[ii];
        for (std::size_t j = ii + 1; j < n; ++j)
            acc -= row[j] * x[j];
        x[ii] = acc / row[ii];
    }
}

/// One-shot solve of A x = b. Throws NumericError if A is singular to
/// working precision (a pivot magnitude below kLuPivotTolerance).
template <typename T>
[[nodiscard]] std::vector<T> solve_linear_system(Matrix<T> a, const std::vector<T>& b) {
    std::vector<std::size_t> perm(a.rows());
    // "LuSolver:" is this error's fixed name, not a class.
    if (const auto singular = lu_factor_in_place(a, perm))
        throw NumericError("LuSolver: singular matrix (pivot " +
                           std::to_string(singular->magnitude) + " at column " +
                           std::to_string(singular->column) + ")");
    std::vector<T> x(a.rows());
    solve_into(a, perm, std::span<const T>(b), std::span<T>(x));
    return x;
}

} // namespace xysig

#endif // XYSIG_COMMON_MATRIX_H
