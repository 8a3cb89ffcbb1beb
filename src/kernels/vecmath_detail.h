#ifndef XYSIG_KERNELS_VECMATH_DETAIL_H
#define XYSIG_KERNELS_VECMATH_DETAIL_H

/// \file vecmath_detail.h
/// The generic vecmath kernel, shared by every ISA instantiation.
///
/// Each ISA provides a "pack" policy (lane type + lane-wise IEEE-754
/// ops); the kernels below are written once against that policy, so the
/// scalar reference and every SIMD build execute the identical operation
/// sequence per lane. Bit-identity across ISAs is by construction, not
/// by testing alone — there is no branch, no FMA (the vecmath TUs are
/// compiled with -ffp-contract=off) and no lane-order-dependent step.
///
/// Only the vecmath*.cpp TUs may include this header.
///
/// Numerics:
///  * sin: Cody-Waite reduction by pi/2 using the round-to-nearest magic
///    constant 1.5*2^52; the quotient q is recovered from the low
///    mantissa bits. pi/2 is split into four parts with short mantissas
///    (the sleef PI_A..PI_D split, halved — halving only changes the
///    exponent, so it is exact). Each part carries <= 28 significant
///    bits, so q * part is EXACT for |q| < 2^24; with arguments bounded
///    by 2^20 the quotient stays below 2^20 and the reduced argument r
///    carries the full input precision. The [-pi/4, pi/4] polynomials
///    are the cephes/sleef minimax sin and cos polynomials (< 1 ULP on
///    the interval); quadrant selection and sign flip are pure bit ops.
///  * exp: reduction by ln2 with the fdlibm hi/lo split (hi has 33
///    significant bits; q < 2^11, so q * hi is exact), Taylor/Horner
///    polynomial through r^13/13! (truncation < 0.05 ULP at
///    |r| <= ln2/2), then exponent scaling via integer bit assembly.
///  * log: the fdlibm kernel made branch-free. The mantissa is recentred
///    to [sqrt(2)/2, sqrt(2)) with the musl offset trick (pure integer
///    ops on the bit pattern; the exponent k is recovered by 12-bit
///    sign extension and turned back into a double with the same
///    round-magic bit trick the sin quadrant uses, exact for |k| < 2^51),
///    then the fdlibm rational approximation in s = f/(2+f) with the
///    Lg1..Lg7 coefficients and the ln2 hi/lo recombination, association
///    preserved verbatim.
///  * softplus: ln(1+e^x) as max(x,0) + log1p(e^-|x|), with log1p(y)
///    evaluated as log(u) * y/(u-1) for u = 1+y (the classic exact
///    correction). Lanes where u rounds to 1 (y < 2^-53) fall back to y
///    itself via a zero-test mask built from integer ops — no FP compare
///    exists in the pack policy, and none is needed.

#include <bit>
#include <cstddef>
#include <cstdint>

namespace xysig::kernels::vecmath::detail {

// Round-to-nearest extraction magic: adding 1.5*2^52 to |v| < 2^51 leaves
// round(v) in the low mantissa bits (two's complement for negative v).
inline constexpr double kRoundMagic = 6755399441055744.0; // 1.5 * 2^52
inline constexpr std::uint64_t kRoundMagicBits = 0x4338000000000000ULL;

inline constexpr double kTwoOverPi = 0.63661977236758134308;

// pi/2 in four exact-product parts (sleef PI_A..PI_D halved).
inline constexpr double kPio2A = 1.5707963109016418457;
inline constexpr double kPio2B = 1.5893254712295856734e-08;
inline constexpr double kPio2C = 6.1232339320535942511e-17;
inline constexpr double kPio2D = 6.3683171635109499082e-25;

// cephes sincof: sin(r) = r + r*s*P(s), s = r^2.
inline constexpr double kSinC1 = -1.66666666666666307295e-1;
inline constexpr double kSinC2 = 8.33333333332211858878e-3;
inline constexpr double kSinC3 = -1.98412698295895385996e-4;
inline constexpr double kSinC4 = 2.75573136213857245213e-6;
inline constexpr double kSinC5 = -2.50507477628578072866e-8;
inline constexpr double kSinC6 = 1.58962301576546568060e-10;

// cephes coscof: cos(r) = 1 - s/2 + s^2*Q(s).
inline constexpr double kCosC0 = -1.13585365213876817300e-11;
inline constexpr double kCosC1 = 2.08757008419747316778e-9;
inline constexpr double kCosC2 = -2.75573141792967388112e-7;
inline constexpr double kCosC3 = 2.48015872888517179954e-5;
inline constexpr double kCosC4 = -1.38888888888730564116e-3;
inline constexpr double kCosC5 = 4.16666666666665929218e-2;

inline constexpr double kLog2E = 1.4426950408889634074;
// fdlibm ln2 split: hi is 0x3FE62E42FEE00000 (33 significant bits).
inline constexpr double kLn2Hi = 6.93147180369123816490e-01;
inline constexpr double kLn2Lo = 1.90821492927058770002e-10;

// exp Taylor coefficients 1/k!: exp(r) = 1 + r + r^2 * sum r^(k-2)/k!.
inline constexpr double kExpC2 = 5.00000000000000000000e-01;
inline constexpr double kExpC3 = 1.66666666666666666667e-01;
inline constexpr double kExpC4 = 4.16666666666666666667e-02;
inline constexpr double kExpC5 = 8.33333333333333333333e-03;
inline constexpr double kExpC6 = 1.38888888888888888889e-03;
inline constexpr double kExpC7 = 1.98412698412698412698e-04;
inline constexpr double kExpC8 = 2.48015873015873015873e-05;
inline constexpr double kExpC9 = 2.75573192239858906526e-06;
inline constexpr double kExpC10 = 2.75573192239858906526e-07;
inline constexpr double kExpC11 = 2.50521083854417187751e-08;
inline constexpr double kExpC12 = 2.08767569878680989792e-09;
inline constexpr double kExpC13 = 1.60590438368216145994e-10;

// fdlibm log: minimax coefficients of the s^2 series on
// [sqrt(2)/2, sqrt(2)), s = f/(2+f).
inline constexpr double kLg1 = 6.666666666666735130e-01;
inline constexpr double kLg2 = 3.999999999940941908e-01;
inline constexpr double kLg3 = 2.857142874366239149e-01;
inline constexpr double kLg4 = 2.222219843214978396e-01;
inline constexpr double kLg5 = 1.818357216161805012e-01;
inline constexpr double kLg6 = 1.531383769920937332e-01;
inline constexpr double kLg7 = 1.479819860511658591e-01;
// musl's OFF: subtracting this from bits(x) puts the recentred mantissa
// boundary at sqrt(2)/2, so the masked-off top 12 bits are exactly k.
inline constexpr std::uint64_t kLogOff = 0x3fe6955500000000ULL;

inline constexpr std::uint64_t kSignMask = 0x8000000000000000ULL;
inline constexpr std::uint64_t kAbsMask = 0x7fffffffffffffffULL;

/// Reference pack: one lane of plain IEEE doubles. The SIMD packs mirror
/// these ops one for one; the integer ops use uint64 wraparound, which is
/// exactly what the vector integer instructions do.
struct ScalarPack {
    static constexpr std::size_t width = 1;
    using pack = double;
    using ipack = std::uint64_t;

    static pack load(const double* p) noexcept { return *p; }
    static void store(double* p, pack v) noexcept { *p = v; }
    static pack set1(double v) noexcept { return v; }
    static pack add(pack a, pack b) noexcept { return a + b; }
    static pack sub(pack a, pack b) noexcept { return a - b; }
    static pack mul(pack a, pack b) noexcept { return a * b; }
    static pack div(pack a, pack b) noexcept { return a / b; }
    static ipack bits(pack v) noexcept { return std::bit_cast<std::uint64_t>(v); }
    static pack from_bits(ipack v) noexcept { return std::bit_cast<double>(v); }
    static ipack iset1(std::uint64_t v) noexcept { return v; }
    static ipack iand(ipack a, ipack b) noexcept { return a & b; }
    static ipack ior(ipack a, ipack b) noexcept { return a | b; }
    static ipack ixor(ipack a, ipack b) noexcept { return a ^ b; }
    static ipack iadd(ipack a, ipack b) noexcept { return a + b; }
    static ipack isub(ipack a, ipack b) noexcept { return a - b; }
    template <int Shift> static ipack ishl(ipack a) noexcept { return a << Shift; }
    template <int Shift> static ipack ishr(ipack a) noexcept { return a >> Shift; }
    /// 0 -> all-zero lane, 1 -> all-one lane (two's complement negate).
    static ipack lane_mask(ipack a) noexcept { return ipack{0} - a; }
    static pack select(ipack mask, pack a, pack b) noexcept {
        return from_bits((bits(a) & mask) | (bits(b) & ~mask));
    }
};

/// sin of one pack. Contract: every lane within +-kMaxSinArgument.
template <class P>
[[nodiscard]] inline typename P::pack sin_pack(typename P::pack x) noexcept {
    using pk = typename P::pack;
    using ik = typename P::ipack;
    // q = round(x * 2/pi); quadrant and sign come from q's low bits.
    const pk t = P::add(P::mul(x, P::set1(kTwoOverPi)), P::set1(kRoundMagic));
    const ik qbits = P::bits(t);
    const pk qf = P::sub(t, P::set1(kRoundMagic));
    // r = x - q*pi/2, each q*part product exact (short-mantissa parts).
    pk r = P::sub(x, P::mul(qf, P::set1(kPio2A)));
    r = P::sub(r, P::mul(qf, P::set1(kPio2B)));
    r = P::sub(r, P::mul(qf, P::set1(kPio2C)));
    r = P::sub(r, P::mul(qf, P::set1(kPio2D)));
    const pk s = P::mul(r, r);
    pk ps = P::set1(kSinC6);
    ps = P::add(P::mul(ps, s), P::set1(kSinC5));
    ps = P::add(P::mul(ps, s), P::set1(kSinC4));
    ps = P::add(P::mul(ps, s), P::set1(kSinC3));
    ps = P::add(P::mul(ps, s), P::set1(kSinC2));
    ps = P::add(P::mul(ps, s), P::set1(kSinC1));
    const pk sin_r = P::add(r, P::mul(P::mul(r, s), ps));
    pk pc = P::set1(kCosC0);
    pc = P::add(P::mul(pc, s), P::set1(kCosC1));
    pc = P::add(P::mul(pc, s), P::set1(kCosC2));
    pc = P::add(P::mul(pc, s), P::set1(kCosC3));
    pc = P::add(P::mul(pc, s), P::set1(kCosC4));
    pc = P::add(P::mul(pc, s), P::set1(kCosC5));
    const pk cos_r = P::add(P::sub(P::set1(1.0), P::mul(P::set1(0.5), s)),
                            P::mul(P::mul(s, s), pc));
    // Quadrant select: odd q -> cos polynomial; q & 2 -> flip the sign.
    const ik use_cos = P::lane_mask(P::iand(qbits, P::iset1(1)));
    const pk picked = P::select(use_cos, cos_r, sin_r);
    const ik sign = P::template ishl<62>(P::iand(qbits, P::iset1(2)));
    return P::from_bits(P::ixor(P::bits(picked), sign));
}

/// exp of one pack. Contract: every lane within +-kMaxExpArgument.
template <class P>
[[nodiscard]] inline typename P::pack exp_pack(typename P::pack x) noexcept {
    using pk = typename P::pack;
    using ik = typename P::ipack;
    // q = round(x / ln2); r = x - q*ln2 in [-ln2/2, ln2/2].
    const pk t = P::add(P::mul(x, P::set1(kLog2E)), P::set1(kRoundMagic));
    const ik qbits = P::bits(t);
    const pk qf = P::sub(t, P::set1(kRoundMagic));
    pk r = P::sub(x, P::mul(qf, P::set1(kLn2Hi)));
    r = P::sub(r, P::mul(qf, P::set1(kLn2Lo)));
    pk p = P::set1(kExpC13);
    p = P::add(P::mul(p, r), P::set1(kExpC12));
    p = P::add(P::mul(p, r), P::set1(kExpC11));
    p = P::add(P::mul(p, r), P::set1(kExpC10));
    p = P::add(P::mul(p, r), P::set1(kExpC9));
    p = P::add(P::mul(p, r), P::set1(kExpC8));
    p = P::add(P::mul(p, r), P::set1(kExpC7));
    p = P::add(P::mul(p, r), P::set1(kExpC6));
    p = P::add(P::mul(p, r), P::set1(kExpC5));
    p = P::add(P::mul(p, r), P::set1(kExpC4));
    p = P::add(P::mul(p, r), P::set1(kExpC3));
    p = P::add(P::mul(p, r), P::set1(kExpC2));
    const pk e = P::add(P::set1(1.0), P::add(r, P::mul(P::mul(r, r), p)));
    // Scale by 2^q: t's mantissa holds magic+q, so bits(t)-bits(magic)=q
    // as a (wrapping) integer; assemble the exponent field directly.
    const ik q = P::isub(qbits, P::iset1(kRoundMagicBits));
    const ik scale = P::template ishl<52>(P::iadd(q, P::iset1(1023)));
    return P::mul(e, P::from_bits(scale));
}

/// Natural log of one pack. Contract: every lane a positive NORMAL
/// double (no subnormals, no zero/inf/NaN). The fdlibm algorithm,
/// de-branched: mantissa recentring is integer arithmetic on the bit
/// pattern, and the exponent k returns to the FP domain through the
/// round-magic trick (exact, |k| <= 2047 << 2^51).
template <class P>
[[nodiscard]] inline typename P::pack log_pack(typename P::pack x) noexcept {
    using pk = typename P::pack;
    using ik = typename P::ipack;
    const ik ix = P::bits(x);
    const ik tmp = P::isub(ix, P::iset1(kLogOff));
    // k = top 12 bits of tmp, sign-extended ((v ^ 0x800) - 0x800): the
    // wrapping subtraction above keeps two's complement intact, so this
    // recovers the true exponent for the whole normal range.
    const ik k12 = P::template ishr<52>(tmp);
    const ik k = P::isub(P::ixor(k12, P::iset1(0x800)), P::iset1(0x800));
    // m = x / 2^k, recentred into [sqrt(2)/2, sqrt(2)).
    const ik mbits =
        P::isub(ix, P::iand(tmp, P::iset1(0xfff0000000000000ULL)));
    const pk m = P::from_bits(mbits);
    // k as a double: bits(magic) + k reassembles magic + k exactly.
    const pk dk = P::sub(P::from_bits(P::iadd(P::iset1(kRoundMagicBits), k)),
                         P::set1(kRoundMagic));
    // fdlibm core on f = m-1, s = f/(2+f), verbatim association.
    const pk f = P::sub(m, P::set1(1.0));
    const pk s = P::div(f, P::add(P::set1(2.0), f));
    const pk z = P::mul(s, s);
    const pk w = P::mul(z, z);
    const pk t1 = P::mul(
        w, P::add(P::set1(kLg2),
                  P::mul(w, P::add(P::set1(kLg4),
                                   P::mul(w, P::set1(kLg6))))));
    const pk t2 = P::mul(
        z, P::add(P::set1(kLg1),
                  P::mul(w, P::add(P::set1(kLg3),
                                   P::mul(w, P::add(P::set1(kLg5),
                                                    P::mul(w, P::set1(kLg7))))))));
    const pk r = P::add(t2, t1);
    const pk hfsq = P::mul(P::mul(P::set1(0.5), f), f);
    // dk*ln2hi - ((hfsq - (s*(hfsq+r) + dk*ln2lo)) - f)
    const pk inner = P::add(P::mul(s, P::add(hfsq, r)),
                            P::mul(dk, P::set1(kLn2Lo)));
    return P::sub(P::mul(dk, P::set1(kLn2Hi)),
                  P::sub(P::sub(hfsq, inner), f));
}

/// softplus ln(1+e^x) of one pack. Contract: |x| <= kMaxExpArgument.
/// Evaluated as max(x,0) + log1p(e^-|x|); both the max and the sign flip
/// are exact bit ops, and log1p uses the u = 1+y correction so the
/// result tracks the correctly rounded softplus within a few ULP.
template <class P>
[[nodiscard]] inline typename P::pack
softplus_pack(typename P::pack x) noexcept {
    using pk = typename P::pack;
    using ik = typename P::ipack;
    const pk ax = P::from_bits(P::iand(P::bits(x), P::iset1(kAbsMask)));
    // max(x, 0) = (x + |x|)/2, both steps exact.
    const pk mx = P::mul(P::set1(0.5), P::add(x, ax));
    const pk nax = P::from_bits(P::ixor(P::bits(ax), P::iset1(kSignMask)));
    const pk e = exp_pack<P>(nax); // e^-|x| in (0, 1]
    const pk u = P::add(P::set1(1.0), e);
    const pk d = P::sub(u, P::set1(1.0));
    // Lanes where u rounded to 1 (e < 2^-53): log1p(e) = e to full
    // precision. d == +0 exactly there; build the zero-test mask from
    // integer ops ((v | -v) >> 63 is 1 iff v != 0).
    const ik dbits = P::bits(d);
    const ik nonzero = P::template ishr<63>(
        P::ior(dbits, P::isub(P::iset1(0), dbits)));
    const ik mask = P::lane_mask(nonzero);
    const pk safe_d = P::select(mask, d, P::set1(1.0));
    const pk corr = P::mul(log_pack<P>(u), P::div(e, safe_d));
    return P::add(mx, P::select(mask, corr, e));
}

/// The batch kernels, one tag each.
enum class Kernel : std::uint8_t { sin, exp, log, softplus };

template <Kernel K, class P>
[[nodiscard]] inline typename P::pack kernel_pack(typename P::pack x) noexcept {
    if constexpr (K == Kernel::sin)
        return sin_pack<P>(x);
    else if constexpr (K == Kernel::exp)
        return exp_pack<P>(x);
    else if constexpr (K == Kernel::log)
        return log_pack<P>(x);
    else
        return softplus_pack<P>(x);
}

/// out[i] = K(x[i]): whole packs, then the tail through the identical ops
/// one lane at a time.
template <class P, Kernel K>
inline void batch_impl(const double* x, double* out, std::size_t n) noexcept {
    constexpr std::size_t w = P::width;
    std::size_t i = 0;
    for (; i + w <= n; i += w)
        P::store(out + i, kernel_pack<K, P>(P::load(x + i)));
    for (; i < n; ++i)
        out[i] = kernel_pack<K, ScalarPack>(x[i]);
}

/// batch_impl for a kernel chosen at run time.
template <class P>
inline void batch(Kernel kernel, const double* x, double* out,
                  std::size_t n) noexcept {
    switch (kernel) {
    case Kernel::sin: batch_impl<P, Kernel::sin>(x, out, n); return;
    case Kernel::exp: batch_impl<P, Kernel::exp>(x, out, n); return;
    case Kernel::log: batch_impl<P, Kernel::log>(x, out, n); return;
    case Kernel::softplus: batch_impl<P, Kernel::softplus>(x, out, n); return;
    }
}

#if defined(__x86_64__) || defined(_M_X64)
// Implemented in vecmath_avx2.cpp (the one TU built with -mavx2); only
// dispatched to after __builtin_cpu_supports("avx2") says yes.
void batch_avx2(Kernel kernel, const double* x, double* out,
                std::size_t n) noexcept;
#endif

} // namespace xysig::kernels::vecmath::detail

#endif // XYSIG_KERNELS_VECMATH_DETAIL_H
