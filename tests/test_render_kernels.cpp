// Differential fuzz of the SIMD raster kernels: every variant the host can
// run must be bit-exact with the scalar reference, and the scalar blend
// must be bit-exact with color::blend_over — the two invariants that make
// kernel dispatch invisible in output bytes (DESIGN.md §4e).

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string_view>
#include <vector>

#include "jedule/color/color.hpp"
#include "jedule/render/kernels.hpp"
#include "jedule/util/cpu.hpp"
#include "jedule/util/rng.hpp"

namespace jedule::render {
namespace {

using color::Color;

std::vector<std::uint8_t> random_row(util::Rng& rng, std::size_t npx) {
  std::vector<std::uint8_t> row(npx * 4);
  for (auto& b : row) {
    b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  return row;
}

Color random_color(util::Rng& rng, int alpha) {
  return Color{static_cast<std::uint8_t>(rng.uniform_int(0, 255)),
               static_cast<std::uint8_t>(rng.uniform_int(0, 255)),
               static_cast<std::uint8_t>(rng.uniform_int(0, 255)),
               static_cast<std::uint8_t>(alpha)};
}

TEST(RasterKernels, ScalarIsAlwaysAvailableAndFirst) {
  const auto& list = kernels::available();
  ASSERT_FALSE(list.empty());
  EXPECT_EQ(list.front(), &kernels::scalar());
  EXPECT_STREQ(kernels::scalar().name, "scalar");
#if defined(__x86_64__)
  EXPECT_TRUE(util::cpu_features().sse2);
#endif
#if defined(__aarch64__)
  EXPECT_TRUE(util::cpu_features().neon);
#endif
}

TEST(RasterKernels, FindAndOverride) {
  EXPECT_EQ(kernels::find("scalar"), &kernels::scalar());
  EXPECT_EQ(kernels::find("no-such-kernel"), nullptr);
  kernels::override_active(&kernels::scalar());
  EXPECT_EQ(&kernels::active(), &kernels::scalar());
  kernels::override_active(nullptr);
  if (const char* env = std::getenv("JEDULE_SIMD")) {
    // The *_scalar_env CTest configuration pins dispatch to scalar.
    if (std::string_view(env) == "scalar") {
      EXPECT_EQ(&kernels::active(), &kernels::scalar());
    }
  } else {
    EXPECT_EQ(&kernels::active(), kernels::available().back());
  }
}

// The scalar blend is the reference for the SIMD variants, so it must
// itself match blend_over exactly — for every alpha, including the 0 and
// 255 ends the callers usually special-case.
TEST(RasterKernels, ScalarBlendMatchesBlendOverForEveryAlpha) {
  util::Rng rng(11);
  for (int a = 0; a <= 255; ++a) {
    const Color c = random_color(rng, a);
    auto row = random_row(rng, 64);
    const auto before = row;
    kernels::scalar().blend_row(row.data(), 64, c);
    for (std::size_t i = 0; i < 64; ++i) {
      const Color dst{before[i * 4], before[i * 4 + 1], before[i * 4 + 2],
                      before[i * 4 + 3]};
      const Color want = color::blend_over(dst, c);
      EXPECT_EQ(row[i * 4 + 0], want.r) << "a=" << a << " px=" << i;
      EXPECT_EQ(row[i * 4 + 1], want.g);
      EXPECT_EQ(row[i * 4 + 2], want.b);
      EXPECT_EQ(row[i * 4 + 3], 255);
    }
  }
}

// Ragged widths 0..67 cross the 4-pixel SSE2 and 8-pixel AVX2/NEON lane
// boundaries several times over, with tails of every phase.
TEST(RasterKernels, FillRowVariantsMatchScalar) {
  util::Rng rng(22);
  for (const kernels::Kernels* k : kernels::available()) {
    for (std::size_t npx = 0; npx <= 67; ++npx) {
      const Color c = random_color(rng, 255);
      auto expect = random_row(rng, npx + 8);
      auto got = expect;
      kernels::scalar().fill_row(expect.data() + 4, npx, c);
      k->fill_row(got.data() + 4, npx, c);
      EXPECT_EQ(got, expect) << k->name << " npx=" << npx;
    }
  }
}

TEST(RasterKernels, BlendRowVariantsMatchScalarForEveryAlpha) {
  util::Rng rng(33);
  for (const kernels::Kernels* k : kernels::available()) {
    for (int a = 0; a <= 255; ++a) {
      const std::size_t npx = static_cast<std::size_t>(rng.uniform_int(0, 67));
      const Color c = random_color(rng, a);
      auto expect = random_row(rng, npx + 8);
      auto got = expect;
      kernels::scalar().blend_row(expect.data() + 4, npx, c);
      k->blend_row(got.data() + 4, npx, c);
      EXPECT_EQ(got, expect) << k->name << " a=" << a << " npx=" << npx;
    }
  }
}

TEST(RasterKernels, CopyRowVariantsMatchScalar) {
  util::Rng rng(44);
  for (const kernels::Kernels* k : kernels::available()) {
    for (std::size_t npx = 0; npx <= 67; ++npx) {
      const auto src = random_row(rng, npx);
      auto expect = random_row(rng, npx + 8);
      auto got = expect;
      kernels::scalar().copy_row(expect.data() + 4, src.data(), npx);
      k->copy_row(got.data() + 4, src.data(), npx);
      EXPECT_EQ(got, expect) << k->name << " npx=" << npx;
    }
  }
}

// Long rows exercise the unrolled main loops well past one vector width.
TEST(RasterKernels, LongRowsMatchScalar) {
  util::Rng rng(55);
  const std::size_t npx = 1021;  // prime: every lane phase shows up
  for (const kernels::Kernels* k : kernels::available()) {
    for (int a : {1, 90, 254, 255}) {
      const Color c = random_color(rng, a);
      auto expect = random_row(rng, npx);
      auto got = expect;
      if (a == 255) {
        kernels::scalar().fill_row(expect.data(), npx, c);
        k->fill_row(got.data(), npx, c);
      } else {
        kernels::scalar().blend_row(expect.data(), npx, c);
        k->blend_row(got.data(), npx, c);
      }
      EXPECT_EQ(got, expect) << k->name << " a=" << a;
    }
  }
}

// --- PNG filter kernels (DESIGN.md §4g) --------------------------------

std::vector<std::uint8_t> random_bytes(util::Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return v;
}

// Every variant must produce the scalar reference's bytes for all five
// filter types over ragged row lengths (the min-SAD choice in the encoder
// relies on this being exact).
TEST(RasterKernels, PngFilterRowVariantsMatchScalar) {
  util::Rng rng(66);
  const std::size_t bpp = 3;
  for (const kernels::Kernels* k : kernels::available()) {
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                          std::size_t{3}, std::size_t{4}, std::size_t{15},
                          std::size_t{16}, std::size_t{17}, std::size_t{31},
                          std::size_t{33}, std::size_t{48}, std::size_t{67},
                          std::size_t{3 * 1021}}) {
      const auto cur = random_bytes(rng, n);
      const auto prev = random_bytes(rng, n);
      for (int type = 0; type <= 4; ++type) {
        std::vector<std::uint8_t> expect(n + 8, 0xAB);
        std::vector<std::uint8_t> got(n + 8, 0xAB);
        kernels::scalar().png_filter_row(type, expect.data(), cur.data(),
                                         prev.data(), n, bpp);
        k->png_filter_row(type, got.data(), cur.data(), prev.data(), n, bpp);
        EXPECT_EQ(got, expect)
            << k->name << " type=" << type << " n=" << n;
      }
    }
  }
}

TEST(RasterKernels, PngUnfilterRowVariantsMatchScalar) {
  util::Rng rng(77);
  const std::size_t bpp = 3;
  for (const kernels::Kernels* k : kernels::available()) {
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                          std::size_t{16}, std::size_t{17}, std::size_t{33},
                          std::size_t{67}, std::size_t{3 * 1021}}) {
      const auto filtered = random_bytes(rng, n);
      const auto prev = random_bytes(rng, n);
      for (int type = 0; type <= 4; ++type) {
        auto expect = filtered;
        auto got = filtered;
        kernels::scalar().png_unfilter_row(type, expect.data(), prev.data(),
                                           n, bpp);
        k->png_unfilter_row(type, got.data(), prev.data(), n, bpp);
        EXPECT_EQ(got, expect)
            << k->name << " type=" << type << " n=" << n;
      }
    }
  }
}

// filter then unfilter is the identity for every type and variant pair --
// the decoder may dispatch a different kernel than the encoder did.
TEST(RasterKernels, PngFilterUnfilterRoundTrips) {
  util::Rng rng(88);
  const std::size_t bpp = 3;
  const std::size_t n = 3 * 257;
  const auto cur = random_bytes(rng, n);
  const auto prev = random_bytes(rng, n);
  for (const kernels::Kernels* enc : kernels::available()) {
    for (const kernels::Kernels* dec : kernels::available()) {
      for (int type = 0; type <= 4; ++type) {
        std::vector<std::uint8_t> filtered(n);
        enc->png_filter_row(type, filtered.data(), cur.data(), prev.data(),
                            n, bpp);
        dec->png_unfilter_row(type, filtered.data(), prev.data(), n, bpp);
        EXPECT_EQ(filtered, cur)
            << enc->name << " -> " << dec->name << " type=" << type;
      }
    }
  }
}

TEST(RasterKernels, PngSadVariantsMatchScalar) {
  util::Rng rng(99);
  for (const kernels::Kernels* k : kernels::available()) {
    for (std::size_t n = 0; n <= 67; ++n) {
      const auto data = random_bytes(rng, n);
      EXPECT_EQ(k->png_sad(data.data(), n),
                kernels::scalar().png_sad(data.data(), n))
          << k->name << " n=" << n;
    }
    // Long rows and extreme values (0x80 scores 128, 0xFF scores 1).
    std::vector<std::uint8_t> extremes(4099, 0x80);
    for (std::size_t i = 0; i < extremes.size(); i += 3) extremes[i] = 0xFF;
    EXPECT_EQ(k->png_sad(extremes.data(), extremes.size()),
              kernels::scalar().png_sad(extremes.data(), extremes.size()))
        << k->name;
  }
}

TEST(RasterKernels, MinMaxF64VariantsMatchScalar) {
  util::Rng rng(123);
  for (const kernels::Kernels* k : kernels::available()) {
    for (std::size_t n = 1; n <= 67; ++n) {
      std::vector<double> a(n), b(n);
      for (std::size_t i = 0; i < n; ++i) {
        a[i] = rng.uniform(-1e6, 1e6);
        b[i] = a[i] + rng.uniform(0.0, 1e3);
      }
      double lo_k = 0, hi_k = 0, lo_s = 0, hi_s = 0;
      k->minmax_f64(a.data(), b.data(), n, &lo_k, &hi_k);
      kernels::scalar().minmax_f64(a.data(), b.data(), n, &lo_s, &hi_s);
      EXPECT_EQ(lo_k, lo_s) << k->name << " n=" << n;
      EXPECT_EQ(hi_k, hi_s) << k->name << " n=" << n;
    }
    // Extremes at every lane position of a long run.
    std::vector<double> a(4099, 1.0), b(4099, 2.0);
    for (std::size_t pos = 0; pos < a.size(); pos += 257) {
      a[pos] = -1e18;
      b[pos] = 1e18;
      double lo_k = 0, hi_k = 0, lo_s = 0, hi_s = 0;
      k->minmax_f64(a.data(), b.data(), a.size(), &lo_k, &hi_k);
      kernels::scalar().minmax_f64(a.data(), b.data(), a.size(), &lo_s,
                                   &hi_s);
      EXPECT_EQ(lo_k, lo_s) << k->name << " pos=" << pos;
      EXPECT_EQ(hi_k, hi_s) << k->name << " pos=" << pos;
      a[pos] = 1.0;
      b[pos] = 2.0;
    }
  }
}

TEST(RasterKernels, HeatAccumVariantsMatchScalar) {
  util::Rng rng(41);
  for (const kernels::Kernels* k : kernels::available()) {
    // Lengths straddling every lane boundary, random increments on random
    // starting contents: element-wise f32 adds must be bit-exact.
    for (std::size_t n = 0; n <= 67; ++n) {
      std::vector<float> a(n), b(n);
      for (std::size_t i = 0; i < n; ++i) {
        a[i] = b[i] = static_cast<float>(rng.uniform(0.0, 1e6));
      }
      const float v = static_cast<float>(rng.uniform(0.0, 16.0));
      kernels::scalar().heat_accum(a.data(), n, v);
      k->heat_accum(b.data(), n, v);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(a[i], b[i]) << k->name << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(RasterKernels, HeatQuantizeVariantsMatchScalar) {
  util::Rng rng(43);
  for (const kernels::Kernels* k : kernels::available()) {
    for (std::size_t n = 0; n <= 67; ++n) {
      std::vector<float> acc(n);
      for (std::size_t i = 0; i < n; ++i) {
        acc[i] = static_cast<float>(rng.uniform(0.0, 300.0));
      }
      // Include the saturating end of the scale and an exact-integer edge.
      if (n > 0) acc[0] = 255.0f;
      if (n > 1) acc[1] = 1e9f;
      for (const float scale : {1.0f, 0.37f, 255.0f / 3.0f}) {
        std::vector<std::uint8_t> a(n, 0xAA), b(n, 0x55);
        kernels::scalar().heat_quantize(acc.data(), n, scale, a.data());
        k->heat_quantize(acc.data(), n, scale, b.data());
        EXPECT_EQ(a, b) << k->name << " n=" << n << " scale=" << scale;
      }
    }
  }
}

TEST(RasterKernels, HeatQuantizeRoundsHalfUpAndSaturates) {
  const float acc[] = {0.0f, 0.49f, 0.5f, 1.49f, 254.49f, 254.5f, 1e9f};
  std::uint8_t out[7] = {};
  kernels::scalar().heat_quantize(acc, 7, 1.0f, out);
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[1], 0);
  EXPECT_EQ(out[2], 1);
  EXPECT_EQ(out[3], 1);
  EXPECT_EQ(out[4], 254);
  EXPECT_EQ(out[5], 255);
  EXPECT_EQ(out[6], 255);
}

}  // namespace
}  // namespace jedule::render
