#include "jedule/render/kernels.hpp"

#include <atomic>
#include <cstring>

#include "jedule/util/cpu.hpp"

#if !defined(JEDULE_SIMD_DISABLED) && (defined(__x86_64__) || defined(_M_X64))
#define JEDULE_KERNELS_SSE2 1
#include <emmintrin.h>
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

// --- PNG scanline filters (RFC 2083 §6) -------------------------------
// All arithmetic is mod 256; a/b/c are the left, above and upper-left
// neighbours of cur[i], taken as 0 outside the row.

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

std::uint64_t png_sad_scalar(const std::uint8_t* data, std::size_t n) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned v = data[i];
    sum += v < 128 ? v : 256 - v;
  }
  return sum;
}

#if defined(JEDULE_KERNELS_SSE2)

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
#endif  // JEDULE_KERNELS_SSE2

std::atomic<const Kernels*> g_override{nullptr};

}  // namespace

const Kernels& scalar() {
  static const Kernels k{"scalar", fill_row_scalar, blend_row_scalar,
                         png_filter_row_scalar, png_sad_scalar};
  return k;
}

const std::vector<const Kernels*>& available() {
  static const std::vector<const Kernels*> list = [] {
    std::vector<const Kernels*> v{&scalar()};
#if defined(JEDULE_KERNELS_SSE2)
    static const Kernels sse2{"sse2", fill_row_sse2, blend_row_sse2,
                              png_filter_row_sse2, png_sad_sse2};
    v.push_back(&sse2);
#endif
    return v;
  }();
  return list;
}

const Kernels& active() {
  if (const Kernels* o = g_override.load(std::memory_order_acquire)) {
    return *o;
  }
  static const Kernels* const picked =
      util::simd_enabled() ? available().back() : &scalar();
  return *picked;
}

void override_active(const Kernels* k) {
  g_override.store(k, std::memory_order_release);
}

}  // namespace jedule::render::kernels
