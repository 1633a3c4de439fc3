#include "jedule/render/deflate.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "jedule/model/builder.hpp"
#include "jedule/render/export.hpp"
#include "jedule/render/png.hpp"
#include "jedule/util/error.hpp"
#include "jedule/util/inflate.hpp"
#include "jedule/util/rng.hpp"

namespace jedule::render {
namespace {

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

TEST(Adler32, KnownVectors) {
  // Reference values from RFC 1950 implementations.
  EXPECT_EQ(adler32(nullptr, 0), 1u);
  const auto abc = bytes_of("abc");
  EXPECT_EQ(adler32(abc.data(), abc.size()), 0x024d0127u);
  const auto msg = bytes_of("Wikipedia");
  EXPECT_EQ(adler32(msg.data(), msg.size()), 0x11E60398u);
}

TEST(Crc32, KnownVectors) {
  EXPECT_EQ(crc32(nullptr, 0), 0u);
  const auto check = bytes_of("123456789");
  EXPECT_EQ(crc32(check.data(), check.size()), 0xCBF43926u);
  const auto abc = bytes_of("abc");
  EXPECT_EQ(crc32(abc.data(), abc.size()), 0x352441C2u);
}

TEST(Crc32, SeedChains) {
  const auto all = bytes_of("hello world");
  const auto first = bytes_of("hello ");
  const auto second = bytes_of("world");
  const auto chained = crc32(second.data(), second.size(),
                             crc32(first.data(), first.size()));
  EXPECT_EQ(chained, crc32(all.data(), all.size()));
}

void roundtrip(const std::vector<std::uint8_t>& data) {
  for (const auto& packed : {deflate_store(data.data(), data.size()),
                             deflate_compress(data.data(), data.size())}) {
    const auto back = util::inflate_decompress(packed.data(), packed.size());
    EXPECT_EQ(back, data);
  }
}

/// BTYPE of the first block: 1 = fixed Huffman, 2 = dynamic Huffman.
int first_block_type(const std::vector<std::uint8_t>& packed) {
  return (packed.at(0) >> 1) & 3;
}

TEST(Deflate, EmptyInput) { roundtrip({}); }

TEST(Deflate, SingleByte) { roundtrip({42}); }

TEST(Deflate, TextRoundTrip) {
  roundtrip(bytes_of("the quick brown fox jumps over the lazy dog"));
}

TEST(Deflate, HighlyRepetitiveCompresses) {
  std::vector<std::uint8_t> data(100000, 7);
  const auto packed = deflate_compress(data.data(), data.size());
  roundtrip(data);
  EXPECT_LT(packed.size(), data.size() / 50);  // runs collapse via LZ77
}

TEST(Deflate, DynamicBeatsFixedOnSkewedHistograms) {
  // Long runs of a few byte values: the per-chunk canonical code assigns
  // them short codes while the fixed code spends 8 bits per literal.
  util::Rng rng(7);
  std::vector<std::uint8_t> data;
  data.reserve(120000);
  while (data.size() < 120000) {
    const auto v = static_cast<std::uint8_t>(rng.uniform_int(0, 3));
    const int run = rng.uniform_int(1, 9);
    for (int i = 0; i < run && !(rng() & 1); ++i) data.push_back(v);
    data.push_back(static_cast<std::uint8_t>(rng() & 0xFF));
  }
  // The encoder emits the dynamic block only when its exact cost, header
  // included, is below the fixed block's.
  const auto packed = deflate_compress(data.data(), data.size());
  EXPECT_EQ(first_block_type(packed), 2);
  EXPECT_EQ(util::inflate_decompress(packed.data(), packed.size()), data);
}

TEST(Deflate, TinyInputFallsBackToTheFixedBlock) {
  // A dynamic header alone costs more bits than these few literals under
  // the fixed code, so the fixed encoder must run.
  const auto data = bytes_of("abc");
  const auto packed = deflate_compress(data.data(), data.size());
  EXPECT_EQ(packed[0] & 1, 1);  // BFINAL
  EXPECT_EQ(first_block_type(packed), 1);
  EXPECT_EQ(util::inflate_decompress(packed.data(), packed.size()), data);
}

TEST(Gzip, RoundTripAndDeterministicFraming) {
  const auto data = bytes_of("gzip framing test, gzip framing test");
  const auto z = gzip_compress(data.data(), data.size());
  ASSERT_GE(z.size(), 18u);
  EXPECT_EQ(z[0], 0x1F);
  EXPECT_EQ(z[1], 0x8B);
  EXPECT_EQ(z[2], 0x08);          // deflate
  EXPECT_EQ(z[3], 0x00);          // no flags
  for (int i = 4; i <= 8; ++i) EXPECT_EQ(z[i], 0x00);  // MTIME, XFL
  const auto back = util::gzip_decompress(z.data(), z.size());
  EXPECT_EQ(back, data);
  // Byte-identical regardless of thread count (same chunk grid).
  EXPECT_EQ(gzip_compress(data.data(), data.size(), 8), z);
}

TEST(Deflate, PeriodicPattern) {
  std::vector<std::uint8_t> data;
  for (int i = 0; i < 50000; ++i) {
    data.push_back(static_cast<std::uint8_t>(i % 7));
  }
  roundtrip(data);
}

TEST(Deflate, RandomDataSurvives) {
  util::Rng rng(99);
  std::vector<std::uint8_t> data(70000);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng() & 0xFF);
  roundtrip(data);
}

TEST(Deflate, AllByteValues) {
  std::vector<std::uint8_t> data;
  for (int rep = 0; rep < 4; ++rep) {
    for (int b = 0; b < 256; ++b) {
      data.push_back(static_cast<std::uint8_t>(b));
    }
  }
  roundtrip(data);
}

TEST(DeflateStore, MultiBlockBoundary) {
  // > 65535 bytes forces several stored blocks.
  std::vector<std::uint8_t> data(70000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31);
  }
  roundtrip(data);
}

TEST(Zlib, RoundTripAllStrategies) {
  // Short text takes the fixed block, a long skewed run the dynamic one.
  std::vector<std::uint8_t> skewed;
  for (int i = 0; i < 4000; ++i) {
    skewed.push_back(static_cast<std::uint8_t>(i % 3 == 0 ? i & 0xFF : 7));
  }
  const std::pair<std::vector<std::uint8_t>, int> inputs[] = {
      {bytes_of("zlib framing test, zlib framing test"), 1}, {skewed, 2}};
  for (const auto& [data, block_type] : inputs) {
    const auto z = zlib_compress(data.data(), data.size());
    EXPECT_EQ(first_block_type({z.begin() + 2, z.end()}), block_type);
    EXPECT_EQ(z[0], 0x78);
    EXPECT_EQ(((static_cast<unsigned>(z[0]) << 8) | z[1]) % 31, 0u);
    const auto back = util::zlib_decompress(z.data(), z.size());
    EXPECT_EQ(back, data);
  }
}

TEST(Zlib, DetectsCorruption) {
  const auto data = bytes_of("payload payload payload");
  auto z = zlib_compress(data.data(), data.size());
  z[z.size() - 1] ^= 0xFF;  // break the Adler-32
  EXPECT_THROW(util::zlib_decompress(z.data(), z.size()), ParseError);
}

TEST(Zlib, RejectsTruncation) {
  const auto data = bytes_of("payload");
  const auto z = zlib_compress(data.data(), data.size());
  EXPECT_THROW(util::zlib_decompress(z.data(), 3), ParseError);
}

TEST(Inflate, RejectsGarbage) {
  const std::vector<std::uint8_t> junk = {0xFF, 0xFF, 0xFF, 0xFF};
  EXPECT_THROW(util::inflate_decompress(junk.data(), junk.size()), ParseError);
}

// Round trip across a size sweep (property-style).
class DeflateSizes : public ::testing::TestWithParam<int> {};

TEST_P(DeflateSizes, RoundTrips) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<std::uint8_t> data(static_cast<std::size_t>(GetParam()));
  for (std::size_t i = 0; i < data.size(); ++i) {
    // Mixture of runs and noise, like filtered scanlines.
    data[i] = rng.bernoulli(0.7) ? 0 : static_cast<std::uint8_t>(rng() & 0xFF);
  }
  roundtrip(data);
}

INSTANTIATE_TEST_SUITE_P(Sweep, DeflateSizes,
                         ::testing::Values(1, 2, 3, 255, 256, 257, 4096,
                                           65535, 65536, 65537, 200000));

// --- Differential: deflate across thread counts --------------------------
// deflate(T) must be byte-identical for T in {1, 2, 8} and round
// trip through util::inflate, over random, run-heavy and real-render
// inputs (the three shapes the exporters feed it).

std::vector<std::uint8_t> random_input() {
  util::Rng rng(2024);
  std::vector<std::uint8_t> data(600000);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng() & 0xFF);
  return data;
}

std::vector<std::uint8_t> run_heavy_input() {
  util::Rng rng(2025);
  std::vector<std::uint8_t> data;
  data.reserve(700000);
  while (data.size() < 700000) {
    const auto v = static_cast<std::uint8_t>(rng() & 0x0F);
    const int run = rng.uniform_int(3, 900);
    data.insert(data.end(), static_cast<std::size_t>(run), v);
  }
  return data;
}

std::vector<std::uint8_t> real_render_input() {
  auto builder = model::ScheduleBuilder().cluster(0, "c0", 32);
  util::Rng rng(2026);
  for (int i = 0; i < 400; ++i) {
    const double start = rng.uniform_int(0, 900) / 10.0;
    const int first = rng.uniform_int(0, 24);
    builder.task(std::to_string(i), i % 2 ? "computation" : "transfer",
                 start, start + rng.uniform_int(5, 200) / 10.0)
        .on(0, first, rng.uniform_int(1, 8));
  }
  RenderOptions options;
  options.style.width = 800;
  options.style.height = 500;
  options.threads = 1;
  const model::Schedule schedule = builder.build();
  return filter_scanlines(render_raster(schedule, options), 1);
}

class DeflateDifferential
    : public ::testing::TestWithParam<const char*> {};

TEST_P(DeflateDifferential, ThreadCountInvariantAndRoundTrips) {
  std::vector<std::uint8_t> data;
  const std::string_view kind = GetParam();
  if (kind == "random") data = random_input();
  else if (kind == "run-heavy") data = run_heavy_input();
  else data = real_render_input();
  ASSERT_GT(data.size(), std::size_t{1} << 18)  // spans several chunks
      << kind;

  const auto serial = deflate_compress(data.data(), data.size(), 1);
  EXPECT_EQ(util::inflate_decompress(serial.data(), serial.size()), data)
      << kind;
  for (const int threads : {2, 8}) {
    EXPECT_EQ(deflate_compress(data.data(), data.size(), threads), serial)
        << kind << " threads=" << threads;
  }
  const auto zserial = zlib_compress(data.data(), data.size(), 1);
  EXPECT_EQ(util::zlib_decompress(zserial.data(), zserial.size()), data)
      << kind;
  for (const int threads : {2, 8}) {
    EXPECT_EQ(zlib_compress(data.data(), data.size(), threads), zserial)
        << kind << " threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Inputs, DeflateDifferential,
                         ::testing::Values("random", "run-heavy",
                                           "real-render"));

}  // namespace
}  // namespace jedule::render
