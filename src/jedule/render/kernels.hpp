#pragma once

// Row kernels for the software rasterizer and the PNG encoder (DESIGN.md
// §4e, §4g). Four primitives cover the paint and filter hot loops: opaque
// row fill (pattern broadcast), source-over alpha blend, PNG scanline
// filter, and the sum-of-absolute-differences filter-selection score.
// Each has two variants: `scalar`, the portable reference present in
// every build, and `sse2`, the x86-64 baseline, compiled unconditionally
// there with no CPU probe.
//
// Every variant is bit-exact with the scalar path — and the scalar blend
// is bit-exact with color::blend_over — so switching kernels can never
// change output bytes. The test suite fuzzes both variants against each
// other (test_render_kernels.cpp).
//
// Overrides, strongest first:
//   - override_active(k): test hook, routes active() to a specific variant.
//   - JEDULE_SIMD environment variable: "scalar", "off" or "0" forces
//     scalar (util::simd_enabled(), which also pins crc32()).
//   - -DJEDULE_SIMD=OFF at configure time builds the scalar path only.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "jedule/color/color.hpp"

namespace jedule::render::kernels {

/// Fills `npx` pixels (4 bytes each) with c.r/c.g/c.b and alpha 255.
using FillRowFn = void (*)(std::uint8_t* row, std::size_t npx,
                           color::Color c);

/// Source-over blends `c` onto `npx` pixels, writing alpha 255. Bit-exact
/// with applying color::blend_over per pixel, for every alpha 0..255.
using BlendRowFn = void (*)(std::uint8_t* row, std::size_t npx,
                            color::Color c);

/// Applies PNG scanline filter `type` (0=None, 1=Sub, 2=Up, 3=Average,
/// 4=Paeth; RFC 2083 §6) to one row of `n` bytes with `bpp` bytes per
/// pixel: out[i] = cur[i] - predictor. `prev` is the prior *unfiltered*
/// row and must point at `n` zero bytes for the first scanline. All
/// arithmetic is mod 256, so every variant is bit-exact with scalar.
using PngFilterRowFn = void (*)(int type, std::uint8_t* out,
                                const std::uint8_t* cur,
                                const std::uint8_t* prev, std::size_t n,
                                std::size_t bpp);

/// Sum over min(b, 256-b) of each byte — the minimum-sum-of-absolute-
/// differences heuristic that scores one filtered scanline candidate.
using PngSadFn = std::uint64_t (*)(const std::uint8_t* data, std::size_t n);

struct Kernels {
  const char* name;  // "scalar", "sse2"
  FillRowFn fill_row;
  BlendRowFn blend_row;
  PngFilterRowFn png_filter_row;
  PngSadFn png_sad;
};

/// The PNG Paeth predictor of a byte from its left (a), above (b) and
/// upper-left (c) neighbours (RFC 2083 §6.6). Shared by the filter
/// kernels and decode_png's unfilter.
inline std::uint8_t paeth_predict(int a, int b, int c) {
  const int p = a + b - c;
  const int pa = p > a ? p - a : a - p;
  const int pb = p > b ? p - b : b - p;
  const int pc = p > c ? p - c : c - p;
  if (pa <= pb && pa <= pc) return static_cast<std::uint8_t>(a);
  if (pb <= pc) return static_cast<std::uint8_t>(b);
  return static_cast<std::uint8_t>(c);
}

/// The portable reference variant (always present).
const Kernels& scalar();

/// Every variant this build has: scalar first, then sse2 on x86-64
/// builds with -DJEDULE_SIMD=ON.
const std::vector<const Kernels*>& available();

/// The dispatched variant: the test override if set, else scalar when
/// util::simd_enabled() is false, else the last of available().
const Kernels& active();

/// Test hook: route active() to `k` (nullptr restores normal dispatch).
void override_active(const Kernels* k);

}  // namespace jedule::render::kernels
