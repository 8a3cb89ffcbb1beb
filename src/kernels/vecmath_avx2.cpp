/// \file vecmath_avx2.cpp
/// AVX2 instantiation of the generic vecmath kernel. This is the one TU
/// built with -mavx2 (see CMakeLists.txt), which is why the AVX2 pack
/// lives here and not in vecmath.cpp: the intrinsics need the target
/// flag, and keeping them in their own TU guarantees the compiler never
/// emits AVX2 instructions on a path reachable before the CPUID check in
/// vecmath.cpp's dispatcher. Like the other vecmath TUs it is compiled
/// with -ffp-contract=off so the lanes round exactly like the scalar
/// reference build.

#include "kernels/vecmath_detail.h"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

namespace xysig::kernels::vecmath::detail {
namespace {

/// Four lanes via AVX2.
struct Avx2Pack {
    static constexpr std::size_t width = 4;
    using pack = __m256d;
    using ipack = __m256i;

    static pack load(const double* p) noexcept { return _mm256_loadu_pd(p); }
    static void store(double* p, pack v) noexcept { _mm256_storeu_pd(p, v); }
    static pack set1(double v) noexcept { return _mm256_set1_pd(v); }
    static pack add(pack a, pack b) noexcept { return _mm256_add_pd(a, b); }
    static pack sub(pack a, pack b) noexcept { return _mm256_sub_pd(a, b); }
    static pack mul(pack a, pack b) noexcept { return _mm256_mul_pd(a, b); }
    static pack div(pack a, pack b) noexcept { return _mm256_div_pd(a, b); }
    static ipack bits(pack v) noexcept { return _mm256_castpd_si256(v); }
    static pack from_bits(ipack v) noexcept { return _mm256_castsi256_pd(v); }
    static ipack iset1(std::uint64_t v) noexcept {
        return _mm256_set1_epi64x(static_cast<long long>(v));
    }
    static ipack iand(ipack a, ipack b) noexcept { return _mm256_and_si256(a, b); }
    static ipack ior(ipack a, ipack b) noexcept { return _mm256_or_si256(a, b); }
    static ipack ixor(ipack a, ipack b) noexcept { return _mm256_xor_si256(a, b); }
    static ipack iadd(ipack a, ipack b) noexcept { return _mm256_add_epi64(a, b); }
    static ipack isub(ipack a, ipack b) noexcept { return _mm256_sub_epi64(a, b); }
    template <int Shift> static ipack ishl(ipack a) noexcept {
        return _mm256_slli_epi64(a, Shift);
    }
    template <int Shift> static ipack ishr(ipack a) noexcept {
        return _mm256_srli_epi64(a, Shift);
    }
    static ipack lane_mask(ipack a) noexcept {
        return _mm256_sub_epi64(_mm256_setzero_si256(), a);
    }
    static pack select(ipack mask, pack a, pack b) noexcept {
        return from_bits(_mm256_or_si256(_mm256_and_si256(mask, bits(a)),
                                         _mm256_andnot_si256(mask, bits(b))));
    }
};

} // namespace

void batch_avx2(Kernel kernel, const double* x, double* out,
                std::size_t n) noexcept {
    batch<Avx2Pack>(kernel, x, out, n);
}

} // namespace xysig::kernels::vecmath::detail

#endif // x86-64
