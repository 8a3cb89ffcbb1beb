// Unit tests for the dense matrix and LU solver feeding the MNA engine.

#include "common/matrix.h"

#include <complex>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include <gtest/gtest.h>

namespace xysig {
namespace {

TEST(Matrix, StoresAndRetrieves) {
    Matrix<double> m(2, 3);
    m(0, 0) = 1.0;
    m(1, 2) = -4.5;
    EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(m(1, 2), -4.5);
    EXPECT_DOUBLE_EQ(m(0, 1), 0.0);
}

TEST(Matrix, OutOfRangeAccessIsContractViolation) {
    Matrix<double> m(2, 2);
    EXPECT_THROW((void)m(2, 0), ContractError);
    EXPECT_THROW((void)m(0, 2), ContractError);
}

TEST(LuSolver, SolvesIdentity) {
    Matrix<double> eye(3, 3);
    for (std::size_t i = 0; i < 3; ++i)
        eye(i, i) = 1.0;
    const std::vector<double> b = {1.0, 2.0, 3.0};
    const auto x = solve_linear_system(std::move(eye), b);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_DOUBLE_EQ(x[i], b[i]);
}

TEST(LuSolver, SolvesGeneralSystem) {
    // 2x + y = 5 ; x + 3y = 10 -> x = 1, y = 3
    Matrix<double> a(2, 2);
    a(0, 0) = 2.0;
    a(0, 1) = 1.0;
    a(1, 0) = 1.0;
    a(1, 1) = 3.0;
    const auto x = solve_linear_system(std::move(a), {5.0, 10.0});
    EXPECT_NEAR(x[0], 1.0, 1e-12);
    EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(LuSolver, PivotingHandlesZeroDiagonal) {
    // Leading zero forces a row swap.
    Matrix<double> a(2, 2);
    a(0, 0) = 0.0;
    a(0, 1) = 1.0;
    a(1, 0) = 1.0;
    a(1, 1) = 0.0;
    const auto x = solve_linear_system(std::move(a), {2.0, 3.0});
    EXPECT_NEAR(x[0], 3.0, 1e-12);
    EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(LuSolver, SingularMatrixThrows) {
    Matrix<double> a(2, 2);
    a(0, 0) = 1.0;
    a(0, 1) = 2.0;
    a(1, 0) = 2.0;
    a(1, 1) = 4.0;
    EXPECT_THROW((void)solve_linear_system(std::move(a), {1.0, 2.0}), NumericError);
}

TEST(LuSolver, FactorisesOnceSolvesMany) {
    Matrix<double> a(2, 2);
    a(0, 0) = 4.0;
    a(0, 1) = 1.0;
    a(1, 0) = 1.0;
    a(1, 1) = 3.0;
    std::vector<std::size_t> perm(2);
    ASSERT_FALSE(lu_factor_in_place(a, perm).has_value());
    const std::vector<double> b1 = {5.0, 4.0};
    const std::vector<double> b2 = {9.0, 7.0};
    std::vector<double> x1(2);
    std::vector<double> x2(2);
    solve_into(a, perm, std::span<const double>(b1), std::span<double>(x1));
    solve_into(a, perm, std::span<const double>(b2), std::span<double>(x2));
    EXPECT_NEAR(4.0 * x1[0] + x1[1], 5.0, 1e-12);
    EXPECT_NEAR(x1[0] + 3.0 * x1[1], 4.0, 1e-12);
    EXPECT_NEAR(4.0 * x2[0] + x2[1], 9.0, 1e-12);
    EXPECT_NEAR(x2[0] + 3.0 * x2[1], 7.0, 1e-12);
}

TEST(LuSolver, ComplexSystem) {
    using C = std::complex<double>;
    Matrix<C> a(2, 2);
    a(0, 0) = C(1.0, 1.0);
    a(0, 1) = C(0.0, 0.0);
    a(1, 0) = C(0.0, 0.0);
    a(1, 1) = C(0.0, 2.0);
    const auto x = solve_linear_system(std::move(a), std::vector<C>{C(2.0, 0.0), C(0.0, 4.0)});
    EXPECT_NEAR(x[0].real(), 1.0, 1e-12);
    EXPECT_NEAR(x[0].imag(), -1.0, 1e-12);
    EXPECT_NEAR(x[1].real(), 2.0, 1e-12);
    EXPECT_NEAR(x[1].imag(), 0.0, 1e-12);
}

TEST(LuSolver, ResidualSmallOnIllConditionedButSolvable) {
    // Hilbert 4x4: ill-conditioned; check the residual, not the solution.
    const std::size_t n = 4;
    Matrix<double> a(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            a(i, j) = 1.0 / static_cast<double>(i + j + 1);
    const Matrix<double> a_copy = a;
    const std::vector<double> b = {1.0, 0.0, 0.0, 1.0};
    const auto x = solve_linear_system(std::move(a), b);
    for (std::size_t i = 0; i < n; ++i) {
        double r = 0.0;
        for (std::size_t j = 0; j < n; ++j)
            r += a_copy(i, j) * x[j];
        EXPECT_NEAR(r, b[i], 1e-8);
    }
}

/// Bit patterns of a run of doubles or complex numbers, for exact
/// comparison (operator== cannot see -0.0 against +0.0 or a NaN payload).
template <typename T>
std::vector<std::uint64_t> bits_of(const std::vector<T>& values) {
    std::vector<std::uint64_t> out(values.size() * sizeof(T) / sizeof(double));
    std::memcpy(out.data(), values.data(), out.size() * sizeof(double));
    return out;
}

// The LU's per-element operation order is part of its contract: the SPICE
// and AC results keep their bits only while it holds. The expected bits
// below were recorded from the implementation that indexed every element
// through Matrix::operator(). Each of these rewrites changes some of them on
// both systems: the last maximum winning a pivot tie, either substitution
// summed in the other order, the elimination as (a * b) / pivot, a fused
// multiply-add in it, and back substitution through the pivot's reciprocal.

TEST(LuInPlace, GivesTheRecordedBitsOnAPivotingSystem) {
    Matrix<double> a(6, 6);
    std::vector<double> b(6);
    for (std::size_t i = 0; i < 6; ++i) {
        for (std::size_t j = 0; j < 6; ++j)
            a(i, j) = static_cast<double>((i * 7 + j * 13 + 5) % 17) / 9.0 - 1.0;
        b[i] = static_cast<double>(i * 5 % 7) / 3.0 - 1.0;
    }
    // Column 0's largest magnitude, twice: the first row holding it pivots.
    a(1, 0) = 2.5;
    a(3, 0) = -2.5;
    Matrix<double> lu = a;
    std::vector<std::size_t> perm(6);
    ASSERT_FALSE(lu_factor_in_place(lu, perm).has_value());
    EXPECT_EQ(perm[0], 1u);
    EXPECT_EQ(bits_of(solve_linear_system(a, b)),
              (std::vector<std::uint64_t>{
                  0x40052d2d2d2d2d22ULL, 0xc02e8f8071625339ULL, 0xbfeb67a3e01c587cULL,
                  0x401fce64fb9228afULL, 0xbfd8e9dacbbcad8aULL, 0x4031ed65de56cf42ULL}));
}

TEST(LuInPlace, GivesTheRecordedBitsOnAComplexSystem) {
    using C = std::complex<double>;
    Matrix<C> a(4, 4);
    std::vector<C> b(4);
    for (std::size_t i = 0; i < 4; ++i) {
        for (std::size_t j = 0; j < 4; ++j)
            a(i, j) = C(static_cast<double>((i * 5 + j * 3) % 11) / 7.0 - 0.5,
                        static_cast<double>((i * 3 + j * 7) % 13) / 5.0 - 1.0);
        b[i] = C(static_cast<double>(i) / 3.0, 1.0 - static_cast<double>(i) / 7.0);
    }
    // |3 + 4i| = |-4 + 3i| = 5 exactly: another pivot tie in column 0.
    a(1, 0) = C(3.0, 4.0);
    a(2, 0) = C(-4.0, 3.0);
    // Real and imaginary part of each unknown in turn.
    EXPECT_EQ(bits_of(solve_linear_system(std::move(a), b)),
              (std::vector<std::uint64_t>{
                  0x3fbbd7e2ca56493dULL, 0xbfc5dd29d66bb277ULL, 0x3ff30736bafe147cULL,
                  0xbfab71075e6531bfULL, 0x3fe7c74d2d935e0eULL, 0x3fe1ef2aedc6d86bULL,
                  0x3fcdfb05695b78ceULL, 0x3ff03dee897177eeULL}));
}

TEST(LuInPlace, SingularMatrixReportsTheFailingColumn) {
    Matrix<double> a(3, 3);
    a(0, 0) = 1.0;
    a(0, 1) = 2.0;
    a(1, 0) = 2.0;
    a(1, 1) = 4.0;
    a(2, 2) = 1.0;
    std::vector<std::size_t> perm(3);
    const auto singular = lu_factor_in_place(a, perm);
    ASSERT_TRUE(singular.has_value());
    EXPECT_EQ(singular->column, 1u);
    EXPECT_LT(singular->magnitude, kLuPivotTolerance);
}

} // namespace
} // namespace xysig
