#include "jedule/render/png.hpp"

#include <gtest/gtest.h>

#include <string>

#include "jedule/util/error.hpp"
#include "jedule/util/rng.hpp"

namespace jedule::render {
namespace {

Framebuffer noise_image(int w, int h, std::uint64_t seed) {
  Framebuffer fb(w, h);
  util::Rng rng(seed);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      fb.set_pixel_unchecked(
          x, y,
          Color{static_cast<std::uint8_t>(rng() & 0xFF),
                static_cast<std::uint8_t>(rng() & 0xFF),
                static_cast<std::uint8_t>(rng() & 0xFF), 255});
    }
  }
  return fb;
}

TEST(Png, SignatureAndChunks) {
  const std::string bytes = encode_png(Framebuffer(4, 3));
  ASSERT_GE(bytes.size(), 8u);
  EXPECT_EQ(bytes.substr(0, 8), std::string("\x89PNG\r\n\x1a\n", 8));
  EXPECT_NE(bytes.find("IHDR"), std::string::npos);
  EXPECT_NE(bytes.find("IDAT"), std::string::npos);
  EXPECT_NE(bytes.find("IEND"), std::string::npos);
}

TEST(Png, RoundTripsPixelExact) {
  const Framebuffer fb = noise_image(37, 23, 1);
  const Framebuffer back = decode_png(encode_png(fb));
  EXPECT_EQ(back, fb);
}

TEST(Png, RoundTripsFlatImage) {
  Framebuffer fb(64, 48, Color{10, 130, 200, 255});
  fb.fill_rect(8, 8, 20, 20, Color{255, 98, 0, 255});
  const Framebuffer back = decode_png(encode_png(fb));
  EXPECT_EQ(back, fb);
}

TEST(Png, Deterministic) {
  const Framebuffer fb = noise_image(50, 40, 2);
  EXPECT_EQ(encode_png(fb), encode_png(fb));
}

TEST(Png, OnePixelImage) {
  Framebuffer fb(1, 1, Color{1, 2, 3, 255});
  const Framebuffer back = decode_png(encode_png(fb));
  EXPECT_EQ(back.pixel(0, 0), (Color{1, 2, 3, 255}));
}

TEST(Png, FlatImageCompressesWell) {
  const Framebuffer fb(800, 600);  // all white
  const std::string bytes = encode_png(fb);
  // Raw would be 800*600*3 = 1.44 MB; runs must collapse dramatically.
  EXPECT_LT(bytes.size(), 30000u);
}

TEST(DecodePng, RejectsBadSignature) {
  EXPECT_THROW(decode_png("not a png at all"), ParseError);
}

TEST(DecodePng, RejectsTruncatedFile) {
  const std::string bytes = encode_png(Framebuffer(16, 16));
  EXPECT_THROW(decode_png(bytes.substr(0, bytes.size() / 2)), ParseError);
}

// An IHDR over render::kMaxPixels (8192 x 8193 = 2^26 + 8192) is refused
// at the header, before the IDAT, which here would not inflate either.
TEST(DecodePng, RejectsImageOverPixelBoundAtHeader) {
  std::string bytes = encode_png(Framebuffer(4, 3));
  // Signature (8) + IHDR length and type (8): width and height follow.
  const char dims[8] = {0, 0, 0x20, 0, 0, 0, 0x20, 0x01};
  bytes.replace(16, 8, dims, 8);
  // IHDR is 25 bytes in all; IDAT's zlib header byte is at 33 + 8.
  bytes[41] = static_cast<char>(bytes[41] ^ 0xFF);
  try {
    decode_png(bytes);
    FAIL() << "decode_png accepted an oversized IHDR";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("67108864-pixel bound"),
              std::string::npos)
        << e.what();
  }
}

class PngSizes : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(PngSizes, RoundTrips) {
  const auto [w, h] = GetParam();
  const Framebuffer fb = noise_image(w, h, static_cast<std::uint64_t>(w * h));
  EXPECT_EQ(decode_png(encode_png(fb)), fb);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PngSizes,
                         ::testing::Values(std::pair{1, 1}, std::pair{2, 1},
                                           std::pair{1, 2}, std::pair{13, 7},
                                           std::pair{256, 1},
                                           std::pair{1, 256},
                                           std::pair{320, 200}));

}  // namespace
}  // namespace jedule::render
