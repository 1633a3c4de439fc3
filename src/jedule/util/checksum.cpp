#include "jedule/util/checksum.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <vector>

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#endif

#include "jedule/util/cpu.hpp"
#include "jedule/util/parallel.hpp"

namespace jedule::util {

std::uint32_t adler32(const std::uint8_t* data, std::size_t size) {
  constexpr std::uint32_t kMod = 65521;
  std::uint32_t a = 1;
  std::uint32_t b = 0;
  // Process in chunks small enough that the sums cannot overflow 32 bits.
  while (size > 0) {
    const std::size_t chunk = std::min<std::size_t>(size, 5552);
    for (std::size_t i = 0; i < chunk; ++i) {
      a += data[i];
      b += a;
    }
    a %= kMod;
    b %= kMod;
    data += chunk;
    size -= chunk;
  }
  return (b << 16) | a;
}

std::uint32_t adler32_combine(std::uint32_t a1, std::uint32_t a2,
                              std::size_t len2) {
  // adler(AB) from adler(A) and adler(B): the s2 sum of B advances by
  // len2 * (s1(A) - 1) because every byte of B sees A's s1 as its prefix.
  constexpr std::uint64_t kMod = 65521;
  const std::uint64_t rem = static_cast<std::uint64_t>(len2 % kMod);
  std::uint64_t sum1 = a1 & 0xFFFF;
  std::uint64_t sum2 = (rem * sum1) % kMod;
  sum1 += (a2 & 0xFFFF) + kMod - 1;
  sum2 += ((a1 >> 16) & 0xFFFF) + ((a2 >> 16) & 0xFFFF) + kMod - rem;
  if (sum1 >= kMod) sum1 -= kMod;
  if (sum1 >= kMod) sum1 -= kMod;
  if (sum2 >= kMod << 1) sum2 -= kMod << 1;
  if (sum2 >= kMod) sum2 -= kMod;
  return static_cast<std::uint32_t>((sum2 << 16) | sum1);
}

namespace {

// Slice-by-8 tables: table[k][b] is the CRC of byte b followed by k zero
// bytes, so eight table lookups advance the register by a full 64-bit
// word per iteration instead of one byte. table[0] is the classic
// bytewise table; results are bit-identical to the bytewise loop.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

const CrcTables& crc_tables() {
  static const CrcTables tables = [] {
    CrcTables t{};
    for (std::uint32_t n = 0; n < 256; ++n) {
      std::uint32_t c = n;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][n] = c;
    }
    for (std::uint32_t n = 0; n < 256; ++n) {
      std::uint32_t c = t[0][n];
      for (std::size_t k = 1; k < 8; ++k) {
        c = t[0][c & 0xFF] ^ (c >> 8);
        t[k][n] = c;
      }
    }
    return t;
  }();
  return tables;
}

}  // namespace

std::uint32_t crc32_portable(const std::uint8_t* data, std::size_t size,
                             std::uint32_t seed) {
  const CrcTables& t = crc_tables();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  if constexpr (std::endian::native == std::endian::little) {
    while (size >= 8) {
      std::uint64_t word;
      std::memcpy(&word, data, 8);
      word ^= c;
      c = t[7][word & 0xFF] ^ t[6][(word >> 8) & 0xFF] ^
          t[5][(word >> 16) & 0xFF] ^ t[4][(word >> 24) & 0xFF] ^
          t[3][(word >> 32) & 0xFF] ^ t[2][(word >> 40) & 0xFF] ^
          t[1][(word >> 48) & 0xFF] ^ t[0][word >> 56];
      data += 8;
      size -= 8;
    }
  }
  for (std::size_t i = 0; i < size; ++i) {
    c = t[0][(c ^ data[i]) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

#if (defined(__x86_64__) || defined(_M_X64)) && \
    (defined(__GNUC__) || defined(__clang__))
#define JEDULE_CRC32_CLMUL 1
#endif

#if defined(JEDULE_CRC32_CLMUL)

namespace {

// PCLMULQDQ folding over the reflected CRC-32 polynomial (the classic
// Intel white-paper scheme): four 128-bit lanes fold 64 bytes per step,
// then reduce 4 -> 1 lane, 128 -> 64 bits, and Barrett-reduce to 32 bits.
// Takes and returns the *raw* (pre-inverted) CRC register; `size` must be
// a non-zero multiple of 16 and at least 64.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t crc32_clmul_raw(
    const std::uint8_t* data, std::size_t size, std::uint32_t crc) {
  // x^(4*128+32), x^(4*128-32), x^(128+32), x^(128-32), x^64 mod P, and
  // the Barrett pair (P', mu), all bit-reflected.
  alignas(16) static const std::uint64_t k1k2[2] = {0x0154442bd4,
                                                    0x01c6e41596};
  alignas(16) static const std::uint64_t k3k4[2] = {0x01751997d0,
                                                    0x00ccaa009e};
  alignas(16) static const std::uint64_t k5k0[2] = {0x0163cd6124, 0};
  alignas(16) static const std::uint64_t poly[2] = {0x01db710641,
                                                    0x01f7011641};
  const __m128i* buf = reinterpret_cast<const __m128i*>(data);

  __m128i x1 = _mm_loadu_si128(buf + 0);
  __m128i x2 = _mm_loadu_si128(buf + 1);
  __m128i x3 = _mm_loadu_si128(buf + 2);
  __m128i x4 = _mm_loadu_si128(buf + 3);
  x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128(static_cast<int>(crc)));
  buf += 4;
  size -= 64;

  __m128i k = _mm_load_si128(reinterpret_cast<const __m128i*>(k1k2));
  while (size >= 64) {
    const __m128i f1 = _mm_clmulepi64_si128(x1, k, 0x00);
    const __m128i f2 = _mm_clmulepi64_si128(x2, k, 0x00);
    const __m128i f3 = _mm_clmulepi64_si128(x3, k, 0x00);
    const __m128i f4 = _mm_clmulepi64_si128(x4, k, 0x00);
    x1 = _mm_clmulepi64_si128(x1, k, 0x11);
    x2 = _mm_clmulepi64_si128(x2, k, 0x11);
    x3 = _mm_clmulepi64_si128(x3, k, 0x11);
    x4 = _mm_clmulepi64_si128(x4, k, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, f1), _mm_loadu_si128(buf + 0));
    x2 = _mm_xor_si128(_mm_xor_si128(x2, f2), _mm_loadu_si128(buf + 1));
    x3 = _mm_xor_si128(_mm_xor_si128(x3, f3), _mm_loadu_si128(buf + 2));
    x4 = _mm_xor_si128(_mm_xor_si128(x4, f4), _mm_loadu_si128(buf + 3));
    buf += 4;
    size -= 64;
  }

  // Fold the four lanes into x1.
  k = _mm_load_si128(reinterpret_cast<const __m128i*>(k3k4));
  __m128i f = _mm_clmulepi64_si128(x1, k, 0x00);
  x1 = _mm_clmulepi64_si128(x1, k, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, f), x2);
  f = _mm_clmulepi64_si128(x1, k, 0x00);
  x1 = _mm_clmulepi64_si128(x1, k, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, f), x3);
  f = _mm_clmulepi64_si128(x1, k, 0x00);
  x1 = _mm_clmulepi64_si128(x1, k, 0x11);
  x1 = _mm_xor_si128(_mm_xor_si128(x1, f), x4);

  // Remaining 16-byte blocks.
  while (size >= 16) {
    f = _mm_clmulepi64_si128(x1, k, 0x00);
    x1 = _mm_clmulepi64_si128(x1, k, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, f), _mm_loadu_si128(buf));
    ++buf;
    size -= 16;
  }

  // 128 -> 64 bits.
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);
  f = _mm_clmulepi64_si128(x1, k, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), f);
  k = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(k5k0));
  f = _mm_srli_si128(x1, 4);
  x1 = _mm_and_si128(x1, mask32);
  x1 = _mm_clmulepi64_si128(x1, k, 0x00);
  x1 = _mm_xor_si128(x1, f);

  // Barrett reduction 64 -> 32 bits.
  k = _mm_load_si128(reinterpret_cast<const __m128i*>(poly));
  f = _mm_and_si128(x1, mask32);
  f = _mm_clmulepi64_si128(f, k, 0x10);
  f = _mm_and_si128(f, mask32);
  f = _mm_clmulepi64_si128(f, k, 0x00);
  x1 = _mm_xor_si128(x1, f);
  return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}

}  // namespace

#endif  // JEDULE_CRC32_CLMUL

std::uint32_t crc32(const std::uint8_t* data, std::size_t size,
                    std::uint32_t seed) {
#if defined(JEDULE_CRC32_CLMUL)
  if (size >= 64 && simd_enabled() && cpu_features().pclmul) {
    const std::size_t folded = size & ~static_cast<std::size_t>(15);
    const std::uint32_t raw =
        crc32_clmul_raw(data, folded, seed ^ 0xFFFFFFFFu);
    return crc32_portable(data + folded, size - folded, raw ^ 0xFFFFFFFFu);
  }
#endif
  return crc32_portable(data, size, seed);
}

namespace {

// CRC-32 is linear over GF(2): appending len2 zero bytes to A multiplies
// crc(A) by x^(8*len2) modulo the CRC polynomial, and crc(AB) is that
// product XOR crc(B). The multiplication is applied as a 32x32 bit matrix.
std::uint32_t gf2_matrix_times(const std::array<std::uint32_t, 32>& mat,
                               std::uint32_t vec) {
  std::uint32_t sum = 0;
  for (int i = 0; vec != 0; vec >>= 1, ++i) {
    if (vec & 1) sum ^= mat[static_cast<std::size_t>(i)];
  }
  return sum;
}

std::array<std::uint32_t, 32> gf2_matrix_square(
    const std::array<std::uint32_t, 32>& mat) {
  std::array<std::uint32_t, 32> sq{};
  for (std::size_t n = 0; n < 32; ++n) sq[n] = gf2_matrix_times(mat, mat[n]);
  return sq;
}

}  // namespace

std::uint32_t crc32_combine(std::uint32_t c1, std::uint32_t c2,
                            std::size_t len2) {
  if (len2 == 0) return c1;

  std::array<std::uint32_t, 32> odd{};
  odd[0] = 0xEDB88320u;  // the CRC-32 polynomial: one shift
  std::uint32_t row = 1;
  for (std::size_t n = 1; n < 32; ++n) {
    odd[n] = row;
    row <<= 1;
  }
  std::array<std::uint32_t, 32> even = gf2_matrix_square(odd);  // 2 shifts
  odd = gf2_matrix_square(even);                                // 4 shifts

  // Apply x^(8*len2) by squaring along the bits of len2 (zlib's scheme:
  // the first `even` application already covers the factor 4 above).
  do {
    even = gf2_matrix_square(odd);
    if (len2 & 1) c1 = gf2_matrix_times(even, c1);
    len2 >>= 1;
    if (len2 == 0) break;
    odd = gf2_matrix_square(even);
    if (len2 & 1) c1 = gf2_matrix_times(odd, c1);
    len2 >>= 1;
  } while (len2 != 0);
  return c1 ^ c2;
}

std::uint32_t crc32_parallel(const std::uint8_t* data, std::size_t size,
                             int threads, std::uint32_t seed) {
  constexpr std::size_t kChunk = 1 << 18;
  if (threads <= 1 || size <= kChunk) return crc32(data, size, seed);
  const std::size_t chunks = (size + kChunk - 1) / kChunk;
  std::vector<std::uint32_t> parts(chunks);
  util::parallel_for(chunks, threads, [&](std::size_t i) {
    const std::size_t off = i * kChunk;
    parts[i] = crc32(data + off, std::min(kChunk, size - off));
  });
  std::uint32_t c = seed;
  std::size_t done = 0;
  for (std::size_t i = 0; i < chunks; ++i) {
    const std::size_t len = std::min(kChunk, size - done);
    c = crc32_combine(c, parts[i], len);
    done += len;
  }
  return c;
}

}  // namespace jedule::util
