// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), slice-by-8. Used by the report
// plane's wire frames, the window log and frame traces so a corrupted or truncated record is
// rejected before any of its contents are trusted.
//
// Slice-by-8 folds eight input bytes per step through eight 256-entry tables: table k maps a
// byte to the CRC contribution of that byte followed by k zero bytes, so the eight lookups of
// one step are independent and XOR together. The checksum is bit-identical to the classic
// one-table bytewise loop (test-gated against it), which still handles the unaligned tail.
//
// On x86-64 hosts with PCLMULQDQ, inputs of 64 bytes or more first run through carry-less
// multiply folding (Gopal et al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
// Instruction", Intel, 2009): four 128-bit lanes fold 64 bytes per step, then a Barrett
// reduction brings the remainder down to 32 bits, and slice-by-8 finishes the last < 16 bytes.
// The host is checked once at run time, so the build needs no -march flag.
#ifndef SRC_COMMON_CRC32_H_
#define SRC_COMMON_CRC32_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DETECTOR_CRC32_CLMUL 1
#include <immintrin.h>
#endif

namespace detector {

namespace internal {

using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Crc32Tables MakeCrc32Tables() {
  Crc32Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (size_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFF] ^ (prev >> 8);
    }
  }
  return tables;
}

inline constexpr Crc32Tables kCrc32Tables = MakeCrc32Tables();

// Little-endian 32-bit load, independent of host byte order and alignment.
inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

// Advances the (pre-inverted) CRC register `c` over n bytes, eight at a time.
inline uint32_t Crc32SliceBy8(uint32_t c, const uint8_t* p, size_t n) {
  const Crc32Tables& t = kCrc32Tables;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = c ^ internal::LoadLe32(p);
    const uint32_t hi = internal::LoadLe32(p + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^
        t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^ t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  }
  return c;
}

#ifdef DETECTOR_CRC32_CLMUL
// x ← x_lo·k_lo ⊕ x_hi·k_hi ⊕ next: moves x forward by the distance k encodes.
__attribute__((target("pclmul"))) inline __m128i ClmulFold(__m128i x, __m128i k, __m128i next) {
  return _mm_xor_si128(
      _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00), _mm_clmulepi64_si128(x, k, 0x11)), next);
}

// Advances the register over n bytes, n >= 64 and a multiple of 16. The constants are the
// bit-reflected x^k mod P(x) values the folding distances need, shifted left by one:
// x^(4·128±32) for the 64-byte fold, x^(128±32) for the 16-byte fold, x^64 for the 64 → 32
// fold, and floor(x^64 / P(x)) and P(x) for the Barrett step.
__attribute__((target("pclmul,sse4.1"))) inline uint32_t Crc32Clmul(uint32_t c, const uint8_t* p,
                                                                    size_t n) {
  const auto load = [](const uint8_t* at) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
  };
  __m128i x0 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  p += 64;
  n -= 64;
  const __m128i k64 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  for (; n >= 64; p += 64, n -= 64) {
    x0 = ClmulFold(x0, k64, load(p));
    x1 = ClmulFold(x1, k64, load(p + 16));
    x2 = ClmulFold(x2, k64, load(p + 32));
    x3 = ClmulFold(x3, k64, load(p + 48));
  }
  const __m128i k16 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  __m128i x = ClmulFold(ClmulFold(ClmulFold(x0, k16, x1), k16, x2), k16, x3);
  for (; n >= 16; p += 16, n -= 16) {
    x = ClmulFold(x, k16, load(p));
  }
  // 128 → 64 bits (appending 32 zero bits), then 64 → 32.
  const __m128i mask32 = _mm_set_epi32(0, 0, 0, -1);
  x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k16, 0x10));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, mask32),
                                         _mm_set_epi64x(0, 0x163cd6124), 0x00));
  // Barrett reduction: quotient estimate by floor(x^64 / P), then subtract that multiple of P.
  const __m128i barrett = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x, mask32), barrett, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, mask32), barrett, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, q), 1));
}

inline bool HostHasClmul() {
  static const bool has = [] {
    __builtin_cpu_init();  // CPU detection may not have run yet during static initialisation
    return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  }();
  return has;
}
#endif

}  // namespace internal

inline uint32_t Crc32(std::span<const uint8_t> bytes, uint32_t seed = 0) {
  uint32_t c = seed ^ 0xFFFFFFFFu;
  const uint8_t* p = bytes.data();
  size_t n = bytes.size();
#ifdef DETECTOR_CRC32_CLMUL
  if (n >= 64 && internal::HostHasClmul()) {
    const size_t folded = n & ~size_t{15};
    c = internal::Crc32Clmul(c, p, folded);
    p += folded;
    n -= folded;
  }
#endif
  return internal::Crc32SliceBy8(c, p, n) ^ 0xFFFFFFFFu;
}

}  // namespace detector

#endif  // SRC_COMMON_CRC32_H_
