#include "jedule/render/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

#include "jedule/model/arena.hpp"
#include "jedule/util/cpu.hpp"

#if !defined(JEDULE_SIMD_DISABLED)
#if defined(__x86_64__) || defined(_M_X64)
#define JEDULE_KERNELS_X86 1
#include <immintrin.h>
#elif defined(__aarch64__)
#define JEDULE_KERNELS_NEON 1
#include <arm_neon.h>
#endif
#endif

namespace jedule::render::kernels {

namespace {

std::uint32_t pack_rgba(color::Color c) {
  // Memory byte order r,g,b,255 == this little-endian word. The stores in
  // Framebuffer always write alpha 255, which is what keeps opaque fills a
  // plain pattern broadcast.
  return static_cast<std::uint32_t>(c.r) |
         static_cast<std::uint32_t>(c.g) << 8 |
         static_cast<std::uint32_t>(c.b) << 16 | 0xFF000000u;
}

// Exact integer form of color::blend_over's lround(d*(1-t) + s*t) with
// t = a/255: x = d*(255-a) + s*a, then divide by 255 with rounding as
// (y + (y >> 8)) >> 8 where y = x + 128. Verified bit-exact against
// blend_over by brute force over all 256^3 (d, s, a) inputs; the test
// suite re-checks a dense sample (test_render_kernels.cpp).
std::uint8_t blend_channel(unsigned d, unsigned s, unsigned a) {
  const unsigned y = d * (255u - a) + s * a + 128u;
  return static_cast<std::uint8_t>((y + (y >> 8)) >> 8);
}

void fill_row_scalar(std::uint8_t* row, std::size_t npx, color::Color c) {
  const std::uint32_t p = pack_rgba(c);
  for (std::size_t i = 0; i < npx; ++i) std::memcpy(row + i * 4, &p, 4);
}

void blend_row_scalar(std::uint8_t* row, std::size_t npx, color::Color c) {
  const unsigned a = c.a;
  for (std::size_t i = 0; i < npx; ++i) {
    std::uint8_t* px = row + i * 4;
    px[0] = blend_channel(px[0], c.r, a);
    px[1] = blend_channel(px[1], c.g, a);
    px[2] = blend_channel(px[2], c.b, a);
    px[3] = 255;
  }
}

void copy_row_scalar(std::uint8_t* dst, const std::uint8_t* src,
                     std::size_t npx) {
  if (npx == 0) return;  // an empty source may be a null pointer
  std::memcpy(dst, src, npx * 4);
}

// --- PNG scanline filters (RFC 2083 §6) -------------------------------
// All arithmetic is mod 256; a/b/c are the left, above and upper-left
// neighbours of cur[i], taken as 0 outside the row.

std::uint8_t paeth_predict(int a, int b, int c) {
  const int p = a + b - c;
  const int pa = p > a ? p - a : a - p;
  const int pb = p > b ? p - b : b - p;
  const int pc = p > c ? p - c : c - p;
  if (pa <= pb && pa <= pc) return static_cast<std::uint8_t>(a);
  if (pb <= pc) return static_cast<std::uint8_t>(b);
  return static_cast<std::uint8_t>(c);
}

void png_filter_row_scalar(int type, std::uint8_t* out,
                           const std::uint8_t* cur, const std::uint8_t* prev,
                           std::size_t n, std::size_t bpp) {
  switch (type) {
    case 0:
      if (n > 0) std::memcpy(out, cur, n);
      break;
    case 1:  // Sub
      for (std::size_t i = 0; i < n && i < bpp; ++i) out[i] = cur[i];
      for (std::size_t i = bpp; i < n; ++i) {
        out[i] = static_cast<std::uint8_t>(cur[i] - cur[i - bpp]);
      }
      break;
    case 2:  // Up
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = static_cast<std::uint8_t>(cur[i] - prev[i]);
      }
      break;
    case 3:  // Average
      for (std::size_t i = 0; i < n && i < bpp; ++i) {
        out[i] = static_cast<std::uint8_t>(cur[i] - prev[i] / 2);
      }
      for (std::size_t i = bpp; i < n; ++i) {
        out[i] = static_cast<std::uint8_t>(cur[i] -
                                           (cur[i - bpp] + prev[i]) / 2);
      }
      break;
    default:  // Paeth; paeth_predict(0, b, 0) == b for the first pixel
      for (std::size_t i = 0; i < n && i < bpp; ++i) {
        out[i] = static_cast<std::uint8_t>(cur[i] - prev[i]);
      }
      for (std::size_t i = bpp; i < n; ++i) {
        out[i] = static_cast<std::uint8_t>(
            cur[i] - paeth_predict(cur[i - bpp], prev[i], prev[i - bpp]));
      }
      break;
  }
}

void png_unfilter_row_scalar(int type, std::uint8_t* cur,
                             const std::uint8_t* prev, std::size_t n,
                             std::size_t bpp) {
  switch (type) {
    case 0:
      break;
    case 1:  // Sub
      for (std::size_t i = bpp; i < n; ++i) {
        cur[i] = static_cast<std::uint8_t>(cur[i] + cur[i - bpp]);
      }
      break;
    case 2:  // Up
      for (std::size_t i = 0; i < n; ++i) {
        cur[i] = static_cast<std::uint8_t>(cur[i] + prev[i]);
      }
      break;
    case 3:  // Average
      for (std::size_t i = 0; i < n && i < bpp; ++i) {
        cur[i] = static_cast<std::uint8_t>(cur[i] + prev[i] / 2);
      }
      for (std::size_t i = bpp; i < n; ++i) {
        cur[i] = static_cast<std::uint8_t>(cur[i] +
                                           (cur[i - bpp] + prev[i]) / 2);
      }
      break;
    default:  // Paeth
      for (std::size_t i = 0; i < n && i < bpp; ++i) {
        cur[i] = static_cast<std::uint8_t>(cur[i] + prev[i]);
      }
      for (std::size_t i = bpp; i < n; ++i) {
        cur[i] = static_cast<std::uint8_t>(
            cur[i] + paeth_predict(cur[i - bpp], prev[i], prev[i - bpp]));
      }
      break;
  }
}

std::uint64_t png_sad_scalar(const std::uint8_t* data, std::size_t n) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned v = data[i];
    sum += v < 128 ? v : 256 - v;
  }
  return sum;
}

#if defined(JEDULE_KERNELS_X86)

// The four u16 lanes of one pixel's source term s*a, in r,g,b,a byte
// order; the alpha lane uses s=255 so a framebuffer pixel (alpha 255)
// blends back to exactly 255.
std::uint64_t premul_lanes(color::Color c) {
  const unsigned a = c.a;
  return static_cast<std::uint64_t>(c.r * a) |
         static_cast<std::uint64_t>(c.g * a) << 16 |
         static_cast<std::uint64_t>(c.b * a) << 32 |
         static_cast<std::uint64_t>(255u * a) << 48;
}

void fill_row_sse2(std::uint8_t* row, std::size_t npx, color::Color c) {
  const std::uint32_t p = pack_rgba(c);
  const __m128i v = _mm_set1_epi32(static_cast<int>(p));
  std::size_t i = 0;
  for (; i + 4 <= npx; i += 4) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(row + i * 4), v);
  }
  for (; i < npx; ++i) std::memcpy(row + i * 4, &p, 4);
}

void blend_row_sse2(std::uint8_t* row, std::size_t npx, color::Color c) {
  // 16-bit-lane evaluation of blend_channel: all intermediates fit in
  // u16 (max 255*255 + 128 + 254 = 65407), so mullo/add/shift per lane
  // reproduce the scalar math exactly.
  const __m128i zero = _mm_setzero_si128();
  const __m128i na = _mm_set1_epi16(static_cast<short>(255 - c.a));
  const __m128i sa =
      _mm_set1_epi64x(static_cast<long long>(premul_lanes(c)));
  const __m128i bias = _mm_set1_epi16(128);
  const __m128i alpha = _mm_set1_epi32(static_cast<int>(0xFF000000u));
  std::size_t i = 0;
  for (; i + 4 <= npx; i += 4) {
    __m128i px =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(row + i * 4));
    __m128i lo = _mm_unpacklo_epi8(px, zero);
    __m128i hi = _mm_unpackhi_epi8(px, zero);
    lo = _mm_add_epi16(_mm_add_epi16(_mm_mullo_epi16(lo, na), sa), bias);
    hi = _mm_add_epi16(_mm_add_epi16(_mm_mullo_epi16(hi, na), sa), bias);
    lo = _mm_srli_epi16(_mm_add_epi16(lo, _mm_srli_epi16(lo, 8)), 8);
    hi = _mm_srli_epi16(_mm_add_epi16(hi, _mm_srli_epi16(hi, 8)), 8);
    px = _mm_or_si128(_mm_packus_epi16(lo, hi), alpha);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(row + i * 4), px);
  }
  if (i < npx) blend_row_scalar(row + i * 4, npx - i, c);
}

void copy_row_sse2(std::uint8_t* dst, const std::uint8_t* src,
                   std::size_t npx) {
  std::size_t i = 0;
  for (; i + 4 <= npx; i += 4) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i * 4));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i * 4), v);
  }
  if (i < npx) std::memcpy(dst + i * 4, src + i * 4, (npx - i) * 4);
}

__attribute__((target("avx2"))) void fill_row_avx2(std::uint8_t* row,
                                                   std::size_t npx,
                                                   color::Color c) {
  const std::uint32_t p = pack_rgba(c);
  const __m256i v = _mm256_set1_epi32(static_cast<int>(p));
  std::size_t i = 0;
  for (; i + 8 <= npx; i += 8) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(row + i * 4), v);
  }
  if (i < npx) fill_row_sse2(row + i * 4, npx - i, c);
}

__attribute__((target("avx2"))) void blend_row_avx2(std::uint8_t* row,
                                                    std::size_t npx,
                                                    color::Color c) {
  // Unpack/pack stay within each 128-bit lane, so applying them
  // symmetrically round-trips the byte order; the lane math matches
  // blend_row_sse2.
  const __m256i zero = _mm256_setzero_si256();
  const __m256i na = _mm256_set1_epi16(static_cast<short>(255 - c.a));
  const __m256i sa =
      _mm256_set1_epi64x(static_cast<long long>(premul_lanes(c)));
  const __m256i bias = _mm256_set1_epi16(128);
  const __m256i alpha = _mm256_set1_epi32(static_cast<int>(0xFF000000u));
  std::size_t i = 0;
  for (; i + 8 <= npx; i += 8) {
    __m256i px =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + i * 4));
    __m256i lo = _mm256_unpacklo_epi8(px, zero);
    __m256i hi = _mm256_unpackhi_epi8(px, zero);
    lo = _mm256_add_epi16(
        _mm256_add_epi16(_mm256_mullo_epi16(lo, na), sa), bias);
    hi = _mm256_add_epi16(
        _mm256_add_epi16(_mm256_mullo_epi16(hi, na), sa), bias);
    lo = _mm256_srli_epi16(_mm256_add_epi16(lo, _mm256_srli_epi16(lo, 8)),
                           8);
    hi = _mm256_srli_epi16(_mm256_add_epi16(hi, _mm256_srli_epi16(hi, 8)),
                           8);
    px = _mm256_or_si256(_mm256_packus_epi16(lo, hi), alpha);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(row + i * 4), px);
  }
  if (i < npx) blend_row_sse2(row + i * 4, npx - i, c);
}

__attribute__((target("avx2"))) void copy_row_avx2(std::uint8_t* dst,
                                                   const std::uint8_t* src,
                                                   std::size_t npx) {
  std::size_t i = 0;
  for (; i + 8 <= npx; i += 8) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i * 4));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i * 4), v);
  }
  if (i < npx) copy_row_sse2(dst + i * 4, src + i * 4, npx - i);
}

// Paeth on eight zero-extended 16-bit lanes. All predictor candidates fit
// in s16 (|a+b-2c| <= 510), so max(x-y, y-x) gives exact absolute values
// and the compare masks reproduce paeth_predict's tie-breaking order.
inline __m128i paeth_predict_epi16_sse2(__m128i a, __m128i b, __m128i c) {
  const __m128i pa = _mm_max_epi16(_mm_sub_epi16(b, c), _mm_sub_epi16(c, b));
  const __m128i pb = _mm_max_epi16(_mm_sub_epi16(a, c), _mm_sub_epi16(c, a));
  const __m128i pp = _mm_sub_epi16(_mm_add_epi16(a, b),
                                   _mm_add_epi16(c, c));
  const __m128i pc = _mm_max_epi16(pp, _mm_sub_epi16(_mm_setzero_si128(),
                                                     pp));
  const __m128i not_a =
      _mm_or_si128(_mm_cmpgt_epi16(pa, pb), _mm_cmpgt_epi16(pa, pc));
  const __m128i not_b = _mm_cmpgt_epi16(pb, pc);
  const __m128i b_or_c =
      _mm_or_si128(_mm_and_si128(not_b, c), _mm_andnot_si128(not_b, b));
  return _mm_or_si128(_mm_and_si128(not_a, b_or_c),
                      _mm_andnot_si128(not_a, a));
}

inline __m128i load8_epi16(const std::uint8_t* p) {
  return _mm_unpacklo_epi8(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)),
      _mm_setzero_si128());
}

// floor((a + b) / 2) on u8 lanes: avg_epu8 rounds up, so subtract the
// carry bit (a ^ b) & 1.
inline __m128i floor_avg_epu8(__m128i a, __m128i b) {
  return _mm_sub_epi8(_mm_avg_epu8(a, b),
                      _mm_and_si128(_mm_xor_si128(a, b),
                                    _mm_set1_epi8(1)));
}

void png_filter_row_sse2(int type, std::uint8_t* out,
                         const std::uint8_t* cur, const std::uint8_t* prev,
                         std::size_t n, std::size_t bpp) {
  std::size_t i = 0;
  switch (type) {
    case 1:  // Sub
      for (; i < n && i < bpp; ++i) out[i] = cur[i];
      for (; i + 16 <= n; i += 16) {
        const __m128i x =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(cur + i));
        const __m128i a = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(cur + i - bpp));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                         _mm_sub_epi8(x, a));
      }
      for (; i < n; ++i) {
        out[i] = static_cast<std::uint8_t>(cur[i] - cur[i - bpp]);
      }
      break;
    case 2:  // Up
      for (; i + 16 <= n; i += 16) {
        const __m128i x =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(cur + i));
        const __m128i b =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(prev + i));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                         _mm_sub_epi8(x, b));
      }
      for (; i < n; ++i) {
        out[i] = static_cast<std::uint8_t>(cur[i] - prev[i]);
      }
      break;
    case 3:  // Average
      for (; i < n && i < bpp; ++i) {
        out[i] = static_cast<std::uint8_t>(cur[i] - prev[i] / 2);
      }
      for (; i + 16 <= n; i += 16) {
        const __m128i x =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(cur + i));
        const __m128i a = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(cur + i - bpp));
        const __m128i b =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(prev + i));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                         _mm_sub_epi8(x, floor_avg_epu8(a, b)));
      }
      for (; i < n; ++i) {
        out[i] = static_cast<std::uint8_t>(cur[i] -
                                           (cur[i - bpp] + prev[i]) / 2);
      }
      break;
    case 4:  // Paeth
      for (; i < n && i < bpp; ++i) {
        out[i] = static_cast<std::uint8_t>(cur[i] - prev[i]);
      }
      for (; i + 8 <= n; i += 8) {
        const __m128i x = load8_epi16(cur + i);
        const __m128i a = load8_epi16(cur + i - bpp);
        const __m128i b = load8_epi16(prev + i);
        const __m128i c = load8_epi16(prev + i - bpp);
        const __m128i d =
            _mm_sub_epi16(x, paeth_predict_epi16_sse2(a, b, c));
        _mm_storel_epi64(
            reinterpret_cast<__m128i*>(out + i),
            _mm_packus_epi16(_mm_and_si128(d, _mm_set1_epi16(0xFF)),
                             _mm_setzero_si128()));
      }
      for (; i < n; ++i) {
        out[i] = static_cast<std::uint8_t>(
            cur[i] - paeth_predict(cur[i - bpp], prev[i], prev[i - bpp]));
      }
      break;
    default:
      png_filter_row_scalar(type, out, cur, prev, n, bpp);
      break;
  }
}

void png_unfilter_row_sse2(int type, std::uint8_t* cur,
                           const std::uint8_t* prev, std::size_t n,
                           std::size_t bpp) {
  if (type != 2) {  // Sub/Average/Paeth carry a loop dependency
    png_unfilter_row_scalar(type, cur, prev, n, bpp);
    return;
  }
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i x =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(cur + i));
    const __m128i b =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(prev + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(cur + i),
                     _mm_add_epi8(x, b));
  }
  for (; i < n; ++i) {
    cur[i] = static_cast<std::uint8_t>(cur[i] + prev[i]);
  }
}

std::uint64_t png_sad_sse2(const std::uint8_t* data, std::size_t n) {
  const __m128i zero = _mm_setzero_si128();
  __m128i acc = zero;
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
    // min(v, 256-v) per byte == |signed byte|; 0-v wraps mod 256.
    const __m128i folded = _mm_min_epu8(v, _mm_sub_epi8(zero, v));
    acc = _mm_add_epi64(acc, _mm_sad_epu8(folded, zero));
  }
  std::uint64_t lanes[2];
  _mm_storeu_si128(reinterpret_cast<__m128i*>(lanes), acc);
  return lanes[0] + lanes[1] + png_sad_scalar(data + i, n - i);
}

__attribute__((target("avx2"))) void png_filter_row_avx2(
    int type, std::uint8_t* out, const std::uint8_t* cur,
    const std::uint8_t* prev, std::size_t n, std::size_t bpp) {
  std::size_t i = 0;
  switch (type) {
    case 1:  // Sub
      for (; i < n && i < bpp; ++i) out[i] = cur[i];
      for (; i + 32 <= n; i += 32) {
        const __m256i x =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cur + i));
        const __m256i a = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(cur + i - bpp));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                            _mm256_sub_epi8(x, a));
      }
      for (; i < n; ++i) {
        out[i] = static_cast<std::uint8_t>(cur[i] - cur[i - bpp]);
      }
      break;
    case 2:  // Up
      for (; i + 32 <= n; i += 32) {
        const __m256i x =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cur + i));
        const __m256i b =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(prev + i));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                            _mm256_sub_epi8(x, b));
      }
      for (; i < n; ++i) {
        out[i] = static_cast<std::uint8_t>(cur[i] - prev[i]);
      }
      break;
    case 3:  // Average
      for (; i < n && i < bpp; ++i) {
        out[i] = static_cast<std::uint8_t>(cur[i] - prev[i] / 2);
      }
      for (; i + 32 <= n; i += 32) {
        const __m256i x =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cur + i));
        const __m256i a = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(cur + i - bpp));
        const __m256i b =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(prev + i));
        const __m256i avg = _mm256_sub_epi8(
            _mm256_avg_epu8(a, b),
            _mm256_and_si256(_mm256_xor_si256(a, b), _mm256_set1_epi8(1)));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                            _mm256_sub_epi8(x, avg));
      }
      for (; i < n; ++i) {
        out[i] = static_cast<std::uint8_t>(cur[i] -
                                           (cur[i - bpp] + prev[i]) / 2);
      }
      break;
    default:
      png_filter_row_sse2(type, out, cur, prev, n, bpp);
      break;
  }
}

__attribute__((target("avx2"))) void png_unfilter_row_avx2(
    int type, std::uint8_t* cur, const std::uint8_t* prev, std::size_t n,
    std::size_t bpp) {
  if (type != 2) {
    png_unfilter_row_scalar(type, cur, prev, n, bpp);
    return;
  }
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cur + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(prev + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(cur + i),
                        _mm256_add_epi8(x, b));
  }
  for (; i < n; ++i) {
    cur[i] = static_cast<std::uint8_t>(cur[i] + prev[i]);
  }
}

__attribute__((target("avx2"))) std::uint64_t png_sad_avx2(
    const std::uint8_t* data, std::size_t n) {
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc = zero;
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    const __m256i folded = _mm256_min_epu8(v, _mm256_sub_epi8(zero, v));
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(folded, zero));
  }
  std::uint64_t lanes[4];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), acc);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3] +
         png_sad_scalar(data + i, n - i);
}

#endif  // JEDULE_KERNELS_X86

#if defined(JEDULE_KERNELS_NEON)

void fill_row_neon(std::uint8_t* row, std::size_t npx, color::Color c) {
  const std::uint32_t p = pack_rgba(c);
  const uint32x4_t v = vdupq_n_u32(p);
  std::size_t i = 0;
  for (; i + 4 <= npx; i += 4) {
    vst1q_u32(reinterpret_cast<std::uint32_t*>(row + i * 4), v);
  }
  for (; i < npx; ++i) std::memcpy(row + i * 4, &p, 4);
}

// blend_channel on one u16x8 vector: d*(255-a) already lives in `acc`.
uint8x8_t blend_narrow_neon(uint16x8_t acc, uint16x8_t sa) {
  uint16x8_t y = vaddq_u16(vaddq_u16(acc, sa), vdupq_n_u16(128));
  y = vaddq_u16(y, vshrq_n_u16(y, 8));
  return vshrn_n_u16(y, 8);
}

void blend_row_neon(std::uint8_t* row, std::size_t npx, color::Color c) {
  const unsigned a = c.a;
  const uint8x8_t na = vdup_n_u8(static_cast<std::uint8_t>(255 - a));
  const uint16x8_t sr = vdupq_n_u16(static_cast<std::uint16_t>(c.r * a));
  const uint16x8_t sg = vdupq_n_u16(static_cast<std::uint16_t>(c.g * a));
  const uint16x8_t sb = vdupq_n_u16(static_cast<std::uint16_t>(c.b * a));
  std::size_t i = 0;
  for (; i + 8 <= npx; i += 8) {
    // De-interleaved planes: 8 pixels per iteration.
    uint8x8x4_t px = vld4_u8(row + i * 4);
    px.val[0] = blend_narrow_neon(vmull_u8(px.val[0], na), sr);
    px.val[1] = blend_narrow_neon(vmull_u8(px.val[1], na), sg);
    px.val[2] = blend_narrow_neon(vmull_u8(px.val[2], na), sb);
    px.val[3] = vdup_n_u8(255);
    vst4_u8(row + i * 4, px);
  }
  if (i < npx) blend_row_scalar(row + i * 4, npx - i, c);
}

void copy_row_neon(std::uint8_t* dst, const std::uint8_t* src,
                   std::size_t npx) {
  std::size_t i = 0;
  for (; i + 4 <= npx; i += 4) {
    vst1q_u8(dst + i * 4, vld1q_u8(src + i * 4));
  }
  if (i < npx) std::memcpy(dst + i * 4, src + i * 4, (npx - i) * 4);
}

// Paeth on eight widened 16-bit lanes; |b-c| and |a-c| fit u8 (vabd), and
// |a+b-2c| <= 510 fits u16. The select order matches paeth_predict.
uint16x8_t paeth_predict_u16_neon(uint16x8_t a, uint16x8_t b, uint16x8_t c) {
  const uint16x8_t pa = vabdq_u16(b, c);
  const uint16x8_t pb = vabdq_u16(a, c);
  const uint16x8_t pc = vabdq_u16(vaddq_u16(a, b), vaddq_u16(c, c));
  const uint16x8_t a_ok =
      vandq_u16(vcleq_u16(pa, pb), vcleq_u16(pa, pc));
  const uint16x8_t b_ok = vcleq_u16(pb, pc);
  return vbslq_u16(a_ok, a, vbslq_u16(b_ok, b, c));
}

void png_filter_row_neon(int type, std::uint8_t* out,
                         const std::uint8_t* cur, const std::uint8_t* prev,
                         std::size_t n, std::size_t bpp) {
  std::size_t i = 0;
  switch (type) {
    case 1:  // Sub
      for (; i < n && i < bpp; ++i) out[i] = cur[i];
      for (; i + 16 <= n; i += 16) {
        vst1q_u8(out + i, vsubq_u8(vld1q_u8(cur + i),
                                   vld1q_u8(cur + i - bpp)));
      }
      for (; i < n; ++i) {
        out[i] = static_cast<std::uint8_t>(cur[i] - cur[i - bpp]);
      }
      break;
    case 2:  // Up
      for (; i + 16 <= n; i += 16) {
        vst1q_u8(out + i,
                 vsubq_u8(vld1q_u8(cur + i), vld1q_u8(prev + i)));
      }
      for (; i < n; ++i) {
        out[i] = static_cast<std::uint8_t>(cur[i] - prev[i]);
      }
      break;
    case 3:  // Average; vhaddq_u8 is exactly floor((a + b) / 2)
      for (; i < n && i < bpp; ++i) {
        out[i] = static_cast<std::uint8_t>(cur[i] - prev[i] / 2);
      }
      for (; i + 16 <= n; i += 16) {
        const uint8x16_t avg =
            vhaddq_u8(vld1q_u8(cur + i - bpp), vld1q_u8(prev + i));
        vst1q_u8(out + i, vsubq_u8(vld1q_u8(cur + i), avg));
      }
      for (; i < n; ++i) {
        out[i] = static_cast<std::uint8_t>(cur[i] -
                                           (cur[i - bpp] + prev[i]) / 2);
      }
      break;
    case 4:  // Paeth
      for (; i < n && i < bpp; ++i) {
        out[i] = static_cast<std::uint8_t>(cur[i] - prev[i]);
      }
      for (; i + 8 <= n; i += 8) {
        const uint16x8_t x = vmovl_u8(vld1_u8(cur + i));
        const uint16x8_t a = vmovl_u8(vld1_u8(cur + i - bpp));
        const uint16x8_t b = vmovl_u8(vld1_u8(prev + i));
        const uint16x8_t c = vmovl_u8(vld1_u8(prev + i - bpp));
        vst1_u8(out + i,
                vmovn_u16(vsubq_u16(x, paeth_predict_u16_neon(a, b, c))));
      }
      for (; i < n; ++i) {
        out[i] = static_cast<std::uint8_t>(
            cur[i] - paeth_predict(cur[i - bpp], prev[i], prev[i - bpp]));
      }
      break;
    default:
      png_filter_row_scalar(type, out, cur, prev, n, bpp);
      break;
  }
}

void png_unfilter_row_neon(int type, std::uint8_t* cur,
                           const std::uint8_t* prev, std::size_t n,
                           std::size_t bpp) {
  if (type != 2) {  // Sub/Average/Paeth carry a loop dependency
    png_unfilter_row_scalar(type, cur, prev, n, bpp);
    return;
  }
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    vst1q_u8(cur + i, vaddq_u8(vld1q_u8(cur + i), vld1q_u8(prev + i)));
  }
  for (; i < n; ++i) {
    cur[i] = static_cast<std::uint8_t>(cur[i] + prev[i]);
  }
}

std::uint64_t png_sad_neon(const std::uint8_t* data, std::size_t n) {
  uint32x4_t acc = vdupq_n_u32(0);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const uint8x16_t v = vld1q_u8(data + i);
    // min(v, 256-v) per byte == |signed byte|.
    const uint8x16_t folded = vminq_u8(v, vsubq_u8(vdupq_n_u8(0), v));
    acc = vpadalq_u16(acc, vpaddlq_u8(folded));
  }
  return vaddvq_u32(acc) + png_sad_scalar(data + i, n - i);
}

#endif  // JEDULE_KERNELS_NEON

// --- columnar double scans (model::ScheduleArena, DESIGN.md §4h) ------

void minmax_f64_scalar(const double* a, const double* b, std::size_t n,
                       double* lo, double* hi) {
  double l = a[0], h = b[0];
  for (std::size_t i = 1; i < n; ++i) {
    l = std::min(l, a[i]);
    h = std::max(h, b[i]);
  }
  *lo = l;
  *hi = h;
}

#if defined(JEDULE_KERNELS_X86)

void minmax_f64_sse2(const double* a, const double* b, std::size_t n,
                     double* lo, double* hi) {
  if (n < 4) {
    minmax_f64_scalar(a, b, n, lo, hi);
    return;
  }
  __m128d vlo = _mm_loadu_pd(a);
  __m128d vhi = _mm_loadu_pd(b);
  std::size_t i = 2;
  for (; i + 2 <= n; i += 2) {
    vlo = _mm_min_pd(vlo, _mm_loadu_pd(a + i));
    vhi = _mm_max_pd(vhi, _mm_loadu_pd(b + i));
  }
  double l2[2], h2[2];
  _mm_storeu_pd(l2, vlo);
  _mm_storeu_pd(h2, vhi);
  double l = std::min(l2[0], l2[1]);
  double h = std::max(h2[0], h2[1]);
  for (; i < n; ++i) {
    l = std::min(l, a[i]);
    h = std::max(h, b[i]);
  }
  *lo = l;
  *hi = h;
}

__attribute__((target("avx2"))) void minmax_f64_avx2(const double* a,
                                                     const double* b,
                                                     std::size_t n,
                                                     double* lo, double* hi) {
  if (n < 8) {
    minmax_f64_sse2(a, b, n, lo, hi);
    return;
  }
  __m256d vlo = _mm256_loadu_pd(a);
  __m256d vhi = _mm256_loadu_pd(b);
  std::size_t i = 4;
  for (; i + 4 <= n; i += 4) {
    vlo = _mm256_min_pd(vlo, _mm256_loadu_pd(a + i));
    vhi = _mm256_max_pd(vhi, _mm256_loadu_pd(b + i));
  }
  double l4[4], h4[4];
  _mm256_storeu_pd(l4, vlo);
  _mm256_storeu_pd(h4, vhi);
  double l = std::min(std::min(l4[0], l4[1]), std::min(l4[2], l4[3]));
  double h = std::max(std::max(h4[0], h4[1]), std::max(h4[2], h4[3]));
  for (; i < n; ++i) {
    l = std::min(l, a[i]);
    h = std::max(h, b[i]);
  }
  *lo = l;
  *hi = h;
}

#endif  // JEDULE_KERNELS_X86

#if defined(JEDULE_KERNELS_NEON)

void minmax_f64_neon(const double* a, const double* b, std::size_t n,
                     double* lo, double* hi) {
  if (n < 4) {
    minmax_f64_scalar(a, b, n, lo, hi);
    return;
  }
  float64x2_t vlo = vld1q_f64(a);
  float64x2_t vhi = vld1q_f64(b);
  std::size_t i = 2;
  for (; i + 2 <= n; i += 2) {
    vlo = vminq_f64(vlo, vld1q_f64(a + i));
    vhi = vmaxq_f64(vhi, vld1q_f64(b + i));
  }
  double l = std::min(vgetq_lane_f64(vlo, 0), vgetq_lane_f64(vlo, 1));
  double h = std::max(vgetq_lane_f64(vhi, 0), vgetq_lane_f64(vhi, 1));
  for (; i < n; ++i) {
    l = std::min(l, a[i]);
    h = std::max(h, b[i]);
  }
  *lo = l;
  *hi = h;
}

#endif  // JEDULE_KERNELS_NEON

// --- edge heat lanes (DESIGN.md §4j) ----------------------------------
// accumulate: element-wise lane adds, no reassociation, so SIMD matches
// scalar bit-for-bit. quantize: min-then-truncate; cvttps/vcvtq truncate
// toward zero exactly like static_cast<int> on in-range values, and the
// saturating packs clamp negatives to 0 just like the scalar guard.

void heat_accum_scalar(float* acc, std::size_t n, float v) {
  for (std::size_t i = 0; i < n; ++i) acc[i] += v;
}

void heat_quantize_scalar(const float* acc, std::size_t n, float scale,
                          std::uint8_t* out) {
  for (std::size_t i = 0; i < n; ++i) {
    const float v = std::min(acc[i] * scale + 0.5f, 255.0f);
    int q = static_cast<int>(v);
    if (q < 0) q = 0;
    out[i] = static_cast<std::uint8_t>(q);
  }
}

#if defined(JEDULE_KERNELS_X86)

void heat_accum_sse2(float* acc, std::size_t n, float v) {
  const __m128 vv = _mm_set1_ps(v);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(acc + i, _mm_add_ps(_mm_loadu_ps(acc + i), vv));
  }
  for (; i < n; ++i) acc[i] += v;
}

void heat_quantize_sse2(const float* acc, std::size_t n, float scale,
                        std::uint8_t* out) {
  const __m128 vscale = _mm_set1_ps(scale);
  const __m128 half = _mm_set1_ps(0.5f);
  const __m128 cap = _mm_set1_ps(255.0f);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 v = _mm_min_ps(
        _mm_add_ps(_mm_mul_ps(_mm_loadu_ps(acc + i), vscale), half), cap);
    const __m128i q = _mm_cvttps_epi32(v);
    const __m128i p8 = _mm_packus_epi16(_mm_packs_epi32(q, q),
                                        _mm_setzero_si128());
    const int word = _mm_cvtsi128_si32(p8);
    std::memcpy(out + i, &word, 4);
  }
  if (i < n) heat_quantize_scalar(acc + i, n - i, scale, out + i);
}

__attribute__((target("avx2"))) void heat_accum_avx2(float* acc,
                                                     std::size_t n, float v) {
  const __m256 vv = _mm256_set1_ps(v);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(acc + i, _mm256_add_ps(_mm256_loadu_ps(acc + i), vv));
  }
  if (i < n) heat_accum_sse2(acc + i, n - i, v);
}

__attribute__((target("avx2"))) void heat_quantize_avx2(const float* acc,
                                                        std::size_t n,
                                                        float scale,
                                                        std::uint8_t* out) {
  const __m256 vscale = _mm256_set1_ps(scale);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 cap = _mm256_set1_ps(255.0f);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_min_ps(
        _mm256_add_ps(_mm256_mul_ps(_mm256_loadu_ps(acc + i), vscale), half),
        cap);
    const __m256i q = _mm256_cvttps_epi32(v);
    const __m128i lo = _mm256_castsi256_si128(q);
    const __m128i hi = _mm256_extracti128_si256(q, 1);
    const __m128i p8 = _mm_packus_epi16(_mm_packs_epi32(lo, hi),
                                        _mm_setzero_si128());
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + i), p8);
  }
  if (i < n) heat_quantize_sse2(acc + i, n - i, scale, out + i);
}

#endif  // JEDULE_KERNELS_X86

#if defined(JEDULE_KERNELS_NEON)

void heat_accum_neon(float* acc, std::size_t n, float v) {
  const float32x4_t vv = vdupq_n_f32(v);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(acc + i, vaddq_f32(vld1q_f32(acc + i), vv));
  }
  for (; i < n; ++i) acc[i] += v;
}

void heat_quantize_neon(const float* acc, std::size_t n, float scale,
                        std::uint8_t* out) {
  const float32x4_t vscale = vdupq_n_f32(scale);
  const float32x4_t half = vdupq_n_f32(0.5f);
  const float32x4_t cap = vdupq_n_f32(255.0f);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const float32x4_t v0 = vminq_f32(
        vaddq_f32(vmulq_f32(vld1q_f32(acc + i), vscale), half), cap);
    const float32x4_t v1 = vminq_f32(
        vaddq_f32(vmulq_f32(vld1q_f32(acc + i + 4), vscale), half), cap);
    // vcvtq truncates toward zero; vqmovun clamps negatives to 0.
    const uint16x8_t q16 = vcombine_u16(vqmovun_s32(vcvtq_s32_f32(v0)),
                                        vqmovun_s32(vcvtq_s32_f32(v1)));
    vst1_u8(out + i, vqmovn_u16(q16));
  }
  if (i < n) heat_quantize_scalar(acc + i, n - i, scale, out + i);
}

#endif  // JEDULE_KERNELS_NEON

std::atomic<const Kernels*> g_override{nullptr};

const Kernels* env_or_best() {
  if (const char* env = std::getenv("JEDULE_SIMD")) {
    const std::string_view want(env);
    if (want == "scalar" || want == "off" || want == "0") return &scalar();
    if (const Kernels* k = find(want)) return k;
  }
  return available().back();
}

}  // namespace

const Kernels& scalar() {
  static const Kernels k{"scalar",          fill_row_scalar,
                         blend_row_scalar,  copy_row_scalar,
                         png_filter_row_scalar, png_unfilter_row_scalar,
                         png_sad_scalar,    minmax_f64_scalar,
                         heat_accum_scalar,
                         heat_quantize_scalar};
  return k;
}

const std::vector<const Kernels*>& available() {
  static const std::vector<const Kernels*> list = [] {
    std::vector<const Kernels*> v{&scalar()};
#if defined(JEDULE_KERNELS_X86)
    const auto& cpu = util::cpu_features();
    if (cpu.sse2) {
      static const Kernels sse2{"sse2",          fill_row_sse2,
                                blend_row_sse2,  copy_row_sse2,
                                png_filter_row_sse2, png_unfilter_row_sse2,
                                png_sad_sse2,    minmax_f64_sse2,
                                heat_accum_sse2,
                                heat_quantize_sse2};
      v.push_back(&sse2);
    }
    if (cpu.avx2) {
      static const Kernels avx2{"avx2",          fill_row_avx2,
                                blend_row_avx2,  copy_row_avx2,
                                png_filter_row_avx2, png_unfilter_row_avx2,
                                png_sad_avx2,    minmax_f64_avx2,
                                heat_accum_avx2,
                                heat_quantize_avx2};
      v.push_back(&avx2);
    }
#elif defined(JEDULE_KERNELS_NEON)
    if (util::cpu_features().neon) {
      static const Kernels neon{"neon",          fill_row_neon,
                                blend_row_neon,  copy_row_neon,
                                png_filter_row_neon, png_unfilter_row_neon,
                                png_sad_neon,    minmax_f64_neon,
                                heat_accum_neon,
                                heat_quantize_neon};
      v.push_back(&neon);
    }
#endif
    return v;
  }();
  return list;
}

const Kernels* find(std::string_view name) {
  for (const Kernels* k : available()) {
    if (name == k->name) return k;
  }
  return nullptr;
}

const Kernels& active() {
  if (const Kernels* o = g_override.load(std::memory_order_acquire)) {
    return *o;
  }
  static const Kernels* const picked = env_or_best();
  return *picked;
}

void override_active(const Kernels* k) {
  g_override.store(k, std::memory_order_release);
}

namespace {

// Route model::ScheduleArena's bounds sweep through the dispatcher. The
// wrapper consults active() at call time, so the JEDULE_SIMD env
// selection and the test override keep working for arena sweeps too.
// Registration happens at static-init of this TU: any binary that links
// the render kernels gets the SIMD sweep, while jed_model alone keeps its
// built-in scalar fallback (no model -> render dependency).
void arena_minmax_f64(const double* a, const double* b, std::size_t n,
                      double* lo, double* hi) {
  active().minmax_f64(a, b, n, lo, hi);
}

const bool g_column_scan_ops_installed = [] {
  model::ColumnScanOps ops;
  ops.minmax_f64 = &arena_minmax_f64;
  model::set_column_scan_ops(ops);
  return true;
}();

}  // namespace

}  // namespace jedule::render::kernels
