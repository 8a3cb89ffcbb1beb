#include "kernels/vecmath.h"

#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/contracts.h"
#include "common/error.h"
#include "kernels/vecmath_detail.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <emmintrin.h>
#elif defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace xysig::kernels::vecmath {
namespace {

#if defined(__x86_64__) || defined(_M_X64)
/// Two lanes via SSE2 (baseline on x86-64; no SSE4 instructions, so the
/// compares/selects are built from the integer sub/and/or primitives).
struct Sse2Pack {
    static constexpr std::size_t width = 2;
    using pack = __m128d;
    using ipack = __m128i;

    static pack load(const double* p) noexcept { return _mm_loadu_pd(p); }
    static void store(double* p, pack v) noexcept { _mm_storeu_pd(p, v); }
    static pack set1(double v) noexcept { return _mm_set1_pd(v); }
    static pack add(pack a, pack b) noexcept { return _mm_add_pd(a, b); }
    static pack sub(pack a, pack b) noexcept { return _mm_sub_pd(a, b); }
    static pack mul(pack a, pack b) noexcept { return _mm_mul_pd(a, b); }
    static pack div(pack a, pack b) noexcept { return _mm_div_pd(a, b); }
    static ipack bits(pack v) noexcept { return _mm_castpd_si128(v); }
    static pack from_bits(ipack v) noexcept { return _mm_castsi128_pd(v); }
    static ipack iset1(std::uint64_t v) noexcept {
        return _mm_set1_epi64x(static_cast<long long>(v));
    }
    static ipack iand(ipack a, ipack b) noexcept { return _mm_and_si128(a, b); }
    static ipack ior(ipack a, ipack b) noexcept { return _mm_or_si128(a, b); }
    static ipack ixor(ipack a, ipack b) noexcept { return _mm_xor_si128(a, b); }
    static ipack iadd(ipack a, ipack b) noexcept { return _mm_add_epi64(a, b); }
    static ipack isub(ipack a, ipack b) noexcept { return _mm_sub_epi64(a, b); }
    template <int Shift> static ipack ishl(ipack a) noexcept {
        return _mm_slli_epi64(a, Shift);
    }
    template <int Shift> static ipack ishr(ipack a) noexcept {
        return _mm_srli_epi64(a, Shift);
    }
    static ipack lane_mask(ipack a) noexcept {
        return _mm_sub_epi64(_mm_setzero_si128(), a);
    }
    static pack select(ipack mask, pack a, pack b) noexcept {
        return from_bits(_mm_or_si128(_mm_and_si128(mask, bits(a)),
                                      _mm_andnot_si128(mask, bits(b))));
    }
};
#endif

#if defined(__aarch64__)
/// Two lanes via NEON (baseline on aarch64).
struct NeonPack {
    static constexpr std::size_t width = 2;
    using pack = float64x2_t;
    using ipack = uint64x2_t;

    static pack load(const double* p) noexcept { return vld1q_f64(p); }
    static void store(double* p, pack v) noexcept { vst1q_f64(p, v); }
    static pack set1(double v) noexcept { return vdupq_n_f64(v); }
    static pack add(pack a, pack b) noexcept { return vaddq_f64(a, b); }
    static pack sub(pack a, pack b) noexcept { return vsubq_f64(a, b); }
    static pack mul(pack a, pack b) noexcept { return vmulq_f64(a, b); }
    static pack div(pack a, pack b) noexcept { return vdivq_f64(a, b); }
    static ipack bits(pack v) noexcept { return vreinterpretq_u64_f64(v); }
    static pack from_bits(ipack v) noexcept { return vreinterpretq_f64_u64(v); }
    static ipack iset1(std::uint64_t v) noexcept { return vdupq_n_u64(v); }
    static ipack iand(ipack a, ipack b) noexcept { return vandq_u64(a, b); }
    static ipack ior(ipack a, ipack b) noexcept { return vorrq_u64(a, b); }
    static ipack ixor(ipack a, ipack b) noexcept { return veorq_u64(a, b); }
    static ipack iadd(ipack a, ipack b) noexcept { return vaddq_u64(a, b); }
    static ipack isub(ipack a, ipack b) noexcept { return vsubq_u64(a, b); }
    template <int Shift> static ipack ishl(ipack a) noexcept {
        return vshlq_n_u64(a, Shift);
    }
    template <int Shift> static ipack ishr(ipack a) noexcept {
        return vshrq_n_u64(a, Shift);
    }
    static ipack lane_mask(ipack a) noexcept {
        return vsubq_u64(vdupq_n_u64(0), a);
    }
    static pack select(ipack mask, pack a, pack b) noexcept {
        return vbslq_f64(mask, a, b);
    }
};
#endif

// Forced-ISA test hook; -1 means "dispatch to native".
std::atomic<int> g_forced_isa{-1};

} // namespace

const char* isa_name(Isa isa) noexcept {
    switch (isa) {
    case Isa::scalar: return "scalar";
    case Isa::sse2: return "sse2";
    case Isa::avx2: return "avx2";
    case Isa::neon: return "neon";
    }
    return "unknown";
}

bool isa_supported(Isa isa) noexcept {
    switch (isa) {
    case Isa::scalar:
        return true;
#if defined(__x86_64__) || defined(_M_X64)
    case Isa::sse2:
        return true; // baseline on x86-64
    case Isa::avx2:
        return __builtin_cpu_supports("avx2") != 0;
#elif defined(__aarch64__)
    case Isa::neon:
        return true; // baseline on aarch64
#endif
    default:
        return false;
    }
}

Isa native_isa() noexcept {
#if defined(__x86_64__) || defined(_M_X64)
    static const Isa native =
        __builtin_cpu_supports("avx2") ? Isa::avx2 : Isa::sse2;
    return native;
#elif defined(__aarch64__)
    return Isa::neon;
#else
    return Isa::scalar;
#endif
}

Isa active_isa() noexcept {
    const int forced = g_forced_isa.load(std::memory_order_relaxed);
    return forced >= 0 ? static_cast<Isa>(forced) : native_isa();
}

void force_isa(Isa isa) {
    if (!isa_supported(isa))
        throw InvalidInput(std::string("vecmath: cannot force ISA '") +
                           isa_name(isa) + "' on this CPU");
    g_forced_isa.store(static_cast<int>(isa), std::memory_order_relaxed);
}

void clear_forced_isa() noexcept {
    g_forced_isa.store(-1, std::memory_order_relaxed);
}

namespace {

/// The one ISA dispatch of every batch kernel.
void dispatch(detail::Kernel kernel, const double* x, double* out,
              std::size_t n) {
    switch (active_isa()) {
#if defined(__x86_64__) || defined(_M_X64)
    case Isa::avx2:
        detail::batch_avx2(kernel, x, out, n);
        return;
    case Isa::sse2:
        detail::batch<Sse2Pack>(kernel, x, out, n);
        return;
#elif defined(__aarch64__)
    case Isa::neon:
        detail::batch<NeonPack>(kernel, x, out, n);
        return;
#endif
    default:
        detail::batch<detail::ScalarPack>(kernel, x, out, n);
        return;
    }
}

} // namespace

void sin_batch(const double* x, double* out, std::size_t n) {
    dispatch(detail::Kernel::sin, x, out, n);
}

void exp_batch(const double* x, double* out, std::size_t n) {
    dispatch(detail::Kernel::exp, x, out, n);
}

void log_batch(const double* x, double* out, std::size_t n) {
    dispatch(detail::Kernel::log, x, out, n);
}

void softplus_batch(const double* x, double* out, std::size_t n) {
    dispatch(detail::Kernel::softplus, x, out, n);
}

double sin_scalar(double x) noexcept {
    return detail::sin_pack<detail::ScalarPack>(x);
}

double exp_scalar(double x) noexcept {
    return detail::exp_pack<detail::ScalarPack>(x);
}

double log_scalar(double x) noexcept {
    return detail::log_pack<detail::ScalarPack>(x);
}

double softplus_scalar(double x) noexcept {
    return detail::softplus_pack<detail::ScalarPack>(x);
}

bool tones_in_range(const ToneTable& tt, double t0, double dt,
                    std::size_t n) noexcept {
    if (n == 0)
        return true;
    const double t_last = t0 + static_cast<double>(n - 1) * dt;
    const double t_max = std::fmax(std::fabs(t0), std::fabs(t_last));
    for (std::size_t k = 0; k < tt.tones; ++k) {
        const double bound =
            std::fabs(tt.omega[k]) * t_max + std::fabs(tt.phase[k]);
        if (!(bound <= kMaxSinArgument))
            return false; // also rejects NaN coefficients
    }
    return true;
}

void sample_multitone(const ToneTable& tt, double t0, double dt,
                      std::size_t n, double* out) {
    XYSIG_EXPECTS(out != nullptr || n == 0);
    // Per-thread scratch: argument and sine lanes for one tone pass.
    thread_local std::vector<double> args;
    thread_local std::vector<double> sines;
    args.resize(n);
    sines.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = tt.offset;
    // Tone-outer / sample-inner: per sample the additions still land in
    // declaration order (offset, tone 0, tone 1, ...), so the rounding
    // sequence per sample matches the exact fused pass; only the sine
    // values themselves differ (polynomial vs libm). The surrounding
    // mul/add loops are elementwise, so autovectorisation cannot change
    // their per-lane results; this TU is built with -ffp-contract=off.
    for (std::size_t k = 0; k < tt.tones; ++k) {
        const double amp = tt.amplitude[k];
        const double omg = tt.omega[k];
        const double ph = tt.phase[k];
        for (std::size_t i = 0; i < n; ++i) {
            const double t = t0 + static_cast<double>(i) * dt;
            args[i] = omg * t + ph;
        }
        sin_batch(args.data(), sines.data(), n);
        for (std::size_t i = 0; i < n; ++i)
            out[i] += amp * sines[i];
    }
}

std::uint64_t ulp_distance(double a, double b) noexcept {
    if (std::isnan(a) || std::isnan(b))
        return std::numeric_limits<std::uint64_t>::max();
    // Map to a monotone unsigned scale: negatives fold below positives.
    const auto key = [](double v) noexcept -> std::uint64_t {
        const auto u = std::bit_cast<std::uint64_t>(v);
        const std::uint64_t sign = 0x8000000000000000ULL;
        return (u & sign) != 0 ? (sign - 1) - (u & ~sign) : u + sign;
    };
    const std::uint64_t ka = key(a);
    const std::uint64_t kb = key(b);
    return ka > kb ? ka - kb : kb - ka;
}

double ulp_of(double x) noexcept {
    const double ax = std::fabs(x);
    return std::nextafter(ax, std::numeric_limits<double>::infinity()) - ax;
}

} // namespace xysig::kernels::vecmath
