#pragma once

// Runtime-dispatched SIMD row kernels for the software rasterizer, the
// PNG codec, and the columnar schedule arena (DESIGN.md §4e, §4g, §4h).
// Ten primitives cover every hot inner loop: opaque row fill (pattern
// broadcast), source-over alpha blend, row copy, PNG scanline
// filter/unfilter, the sum-of-absolute-differences filter-selection
// score, two double-column scans (paired min/max reduction and
// first-time-violation search) that serve model::ScheduleArena through
// the ColumnScanOps hook, and the edge heat-lane pair (f32 column
// accumulate + byte quantize, DESIGN.md §4j). Each has scalar, SSE2,
// AVX2 and NEON variants; dispatch picks the best one the executing CPU
// supports, decided once at startup.
//
// Every variant is bit-exact with the scalar path — and the scalar blend
// is bit-exact with color::blend_over — so switching kernels can never
// change output bytes. The test suite fuzzes all variants against scalar
// (test_render_kernels.cpp).
//
// Overrides, strongest first:
//   - override_active(k): test hook, routes active() to a specific variant.
//   - JEDULE_SIMD environment variable: "scalar"/"off" forces scalar,
//     "sse2"/"avx2"/"neon" selects that variant when available (silently
//     falls back to the best available one otherwise).
//   - -DJEDULE_SIMD=OFF at configure time compiles the dispatch down to
//     the scalar path only.

#include <cstddef>
#include <cstdint>
#include <string_view>
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

/// Copies `npx` pixels; ranges must not overlap.
using CopyRowFn = void (*)(std::uint8_t* dst, const std::uint8_t* src,
                           std::size_t npx);

/// Applies PNG scanline filter `type` (0=None, 1=Sub, 2=Up, 3=Average,
/// 4=Paeth; RFC 2083 §6) to one row of `n` bytes with `bpp` bytes per
/// pixel: out[i] = cur[i] - predictor. `prev` is the prior *unfiltered*
/// row and must point at `n` zero bytes for the first scanline. All
/// arithmetic is mod 256, so every variant is bit-exact with scalar.
using PngFilterRowFn = void (*)(int type, std::uint8_t* out,
                                const std::uint8_t* cur,
                                const std::uint8_t* prev, std::size_t n,
                                std::size_t bpp);

/// Reverses a PNG scanline filter in place: `cur` holds the filtered bytes
/// on entry and the reconstructed row on return. `prev` is the prior
/// *reconstructed* row (`n` zero bytes for the first scanline). Only Up is
/// data-parallel; Sub/Average/Paeth carry a loop dependency and run the
/// scalar path in every variant.
using PngUnfilterRowFn = void (*)(int type, std::uint8_t* cur,
                                  const std::uint8_t* prev, std::size_t n,
                                  std::size_t bpp);

/// Sum over min(b, 256-b) of each byte — the minimum-sum-of-absolute-
/// differences heuristic that scores one filtered scanline candidate.
using PngSadFn = std::uint64_t (*)(const std::uint8_t* data, std::size_t n);

/// Paired column reduction: *lo = min over a[0..n), *hi = max over
/// b[0..n); n >= 1. Inputs must be NaN-free (the arena computes time
/// bounds only over columns its validation pass accepted) — with NaNs the
/// variants may legitimately disagree, like any SIMD min/max.
using MinMaxF64Fn = void (*)(const double* a, const double* b, std::size_t n,
                             double* lo, double* hi);

/// acc[i] += v over [0, n) — the edge heat-lane column accumulate. Lane
/// adds are element-wise (no reassociation), so every variant is
/// bit-exact with scalar; heat counts of 1.0f stay exact below 2^24.
using HeatAccumFn = void (*)(float* acc, std::size_t n, float v);

/// out[i] = clamp(trunc(min(acc[i] * scale + 0.5f, 255.0f)), 0, 255) —
/// the heat-lane byte quantizer. Truncation toward zero matches
/// cvttps/vcvtq exactly, so the quantized ramp is identical under every
/// variant.
using HeatQuantizeFn = void (*)(const float* acc, std::size_t n, float scale,
                                std::uint8_t* out);

struct Kernels {
  const char* name;  // "scalar", "sse2", "avx2", "neon"
  FillRowFn fill_row;
  BlendRowFn blend_row;
  CopyRowFn copy_row;
  PngFilterRowFn png_filter_row;
  PngUnfilterRowFn png_unfilter_row;
  PngSadFn png_sad;
  MinMaxF64Fn minmax_f64;
  HeatAccumFn heat_accum;
  HeatQuantizeFn heat_quantize;
};

/// The portable reference variant (always present).
const Kernels& scalar();

/// Every variant this build supports and the host CPU can run, scalar
/// first, fastest last.
const std::vector<const Kernels*>& available();

/// The variant in `available()` with `name`, or nullptr.
const Kernels* find(std::string_view name);

/// The dispatched variant: the test override if set, else the
/// JEDULE_SIMD env selection, else the fastest available.
const Kernels& active();

/// Test hook: route active() to `k` (nullptr restores normal dispatch).
void override_active(const Kernels* k);

}  // namespace jedule::render::kernels
