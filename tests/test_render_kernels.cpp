// Differential fuzz of the raster kernels: every variant the build has
// must be bit-exact with the scalar reference, and the scalar blend
// must be bit-exact with color::blend_over — the two invariants that make
// kernel dispatch invisible in output bytes (DESIGN.md §4e).

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "jedule/color/color.hpp"
#include "jedule/render/deflate.hpp"
#include "jedule/render/gantt.hpp"
#include "jedule/render/kernels.hpp"
#include "jedule/render/png.hpp"
#include "jedule/util/checksum.hpp"
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
  std::vector<std::string> names;
  for (const kernels::Kernels* k : kernels::available()) {
    names.emplace_back(k->name);
  }
#if defined(__x86_64__) && !defined(JEDULE_SIMD_DISABLED)
  const std::vector<std::string> want{"scalar", "sse2"};
#else
  const std::vector<std::string> want{"scalar"};
#endif
  EXPECT_EQ(names, want);
  EXPECT_EQ(kernels::available().front(), &kernels::scalar());
}

TEST(RasterKernels, FindAndOverride) {
  kernels::override_active(&kernels::scalar());
  EXPECT_EQ(&kernels::active(), &kernels::scalar());
  kernels::override_active(nullptr);
  if (const char* env = std::getenv("JEDULE_SIMD")) {
    // The *_scalar_env CTest configuration pins the kernels, and through
    // util::simd_enabled() crc32(), to their portable paths.
    if (std::string_view(env) == "scalar") {
      EXPECT_FALSE(util::simd_enabled());
      EXPECT_EQ(&kernels::active(), &kernels::scalar());
    }
  } else {
    EXPECT_TRUE(util::simd_enabled());
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

// Ragged widths 0..67 cross the 4-pixel SSE2 lane boundary many times
// over, with tails of every phase.
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

// A truecolor PNG whose IDAT holds `raw` (filter byte + row, per row).
std::string rgb_png(int w, int h, const std::vector<std::uint8_t>& raw) {
  auto u32 = [](std::string& out, std::uint32_t v) {
    for (int shift = 24; shift >= 0; shift -= 8) {
      out += static_cast<char>(v >> shift);
    }
  };
  std::string png("\x89PNG\r\n\x1a\n", 8);
  auto chunk = [&](const char* type, const std::string& body) {
    u32(png, static_cast<std::uint32_t>(body.size()));
    const std::string typed = type + body;
    png += typed;
    u32(png, util::crc32(reinterpret_cast<const std::uint8_t*>(typed.data()),
                         typed.size()));
  };
  std::string ihdr;
  u32(ihdr, static_cast<std::uint32_t>(w));
  u32(ihdr, static_cast<std::uint32_t>(h));
  ihdr += std::string("\x08\x02\x00\x00\x00", 5);  // 8-bit RGB
  chunk("IHDR", ihdr);
  const auto z = zlib_compress(raw.data(), raw.size());
  chunk("IDAT", std::string(z.begin(), z.end()));
  chunk("IEND", "");
  return png;
}

// Filtering with every type and encoder variant, then decoding, gives the
// pixels back: decode_png's one unfilter inverts every encoder's rows.
TEST(RasterKernels, PngFilterUnfilterRoundTrips) {
  util::Rng rng(88);
  const int w = 257;
  const int h = 3;  // rows 1 and 2 filter against a nonzero row above
  const std::size_t rowlen = 3 * static_cast<std::size_t>(w);
  const auto rgb = random_bytes(rng, rowlen * h);
  const std::vector<std::uint8_t> zero_row(rowlen, 0);
  for (const kernels::Kernels* enc : kernels::available()) {
    for (int type = 0; type <= 4; ++type) {
      std::vector<std::uint8_t> raw((rowlen + 1) * h);
      for (int y = 0; y < h; ++y) {
        const std::uint8_t* cur = rgb.data() + y * rowlen;
        const std::uint8_t* prev = y > 0 ? cur - rowlen : zero_row.data();
        std::uint8_t* dst = raw.data() + y * (rowlen + 1);
        dst[0] = static_cast<std::uint8_t>(type);
        enc->png_filter_row(type, dst + 1, cur, prev, rowlen, 3);
      }
      const Framebuffer fb = decode_png(rgb_png(w, h, raw));
      std::vector<std::uint8_t> back;
      for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
          const Color c = fb.pixel(x, y);
          back.insert(back.end(), {c.r, c.g, c.b});
        }
      }
      EXPECT_EQ(back, rgb) << enc->name << " type=" << type;
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

TEST(RasterKernels, HeatQuantizeRoundsHalfUpAndSaturates) {
  const float acc[] = {0.0f, 0.49f, 0.5f, 1.49f, 254.49f, 254.5f, 1e9f};
  std::uint8_t out[7] = {};
  heat_quantize(acc, 7, 1.0f, out);
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
