#ifndef XYSIG_SUPPORT_PIN_H
#define XYSIG_SUPPORT_PIN_H

/// \file pin.h
/// Bit-exact pins of model outputs: a pinned double is compared by its
/// IEEE-754 bit pattern, and a pinned sequence by the FNV-1a-64 hash of
/// those patterns (or of an exact-hexfloat fingerprint string), so a moved
/// last bit fails the test on every platform.

#include <bit>
#include <cstdint>
#include <span>
#include <string_view>

namespace xysig {

/// The IEEE-754 bit pattern of v.
[[nodiscard]] inline std::uint64_t bits_of(double v) noexcept {
    return std::bit_cast<std::uint64_t>(v);
}

/// FNV-1a-64 over the bytes of s.
[[nodiscard]] inline std::uint64_t fnv1a64(std::string_view s) noexcept {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

/// FNV-1a-64 over the bit patterns of xs, each least significant byte first.
[[nodiscard]] inline std::uint64_t fnv1a64(std::span<const double> xs) noexcept {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const double x : xs) {
        const std::uint64_t b = bits_of(x);
        for (int shift = 0; shift < 64; shift += 8) {
            h ^= (b >> shift) & 0xffu;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

} // namespace xysig

#endif // XYSIG_SUPPORT_PIN_H
