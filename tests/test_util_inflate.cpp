// Structured fuzz of util::inflate's dynamic-Huffman header validation:
// hand-built DEFLATE headers with oversubscribed / incomplete code-length
// tables, repeats before the first code, and repeats running past the
// table end must all be rejected with ParseError — never decoded into
// garbage or allowed to run off a buffer (run under the san preset).

#include "jedule/util/inflate.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "jedule/render/deflate.hpp"
#include "jedule/util/error.hpp"

namespace jedule::util {
namespace {

// LSB-first bit sink matching the DEFLATE bit order.
struct BitSink {
  std::vector<std::uint8_t> bytes;
  int bit = 0;

  void put(std::uint32_t value, int count) {
    for (int i = 0; i < count; ++i) {
      if (bit == 0) bytes.push_back(0);
      if ((value >> i) & 1) {
        bytes.back() |= static_cast<std::uint8_t>(1u << bit);
      }
      bit = (bit + 1) % 8;
    }
  }
};

// RFC 1951 §3.2.7 transmission order of the code-length code lengths.
constexpr int kClOrder[19] = {16, 17, 18, 0, 8,  7, 9,  6, 10, 5,
                              11, 4,  12, 3, 13, 2, 14, 1, 15};

// Emits a final dynamic-block header: hlit/hdist/hclen followed by the
// 3-bit code-length lengths given per symbol (index = CL symbol 0..18).
BitSink dynamic_header(int hlit, int hdist, const int cl_lengths[19]) {
  BitSink b;
  b.put(1, 1);  // BFINAL
  b.put(2, 2);  // BTYPE = dynamic
  b.put(static_cast<std::uint32_t>(hlit - 257), 5);
  b.put(static_cast<std::uint32_t>(hdist - 1), 5);
  b.put(19 - 4, 4);  // hclen: send all 19 entries
  for (int i = 0; i < 19; ++i) {
    b.put(static_cast<std::uint32_t>(cl_lengths[kClOrder[i]]), 3);
  }
  return b;
}

void expect_rejected(const BitSink& b, const char* what) {
  EXPECT_THROW(inflate_decompress(b.bytes.data(), b.bytes.size()),
               ParseError)
      << what;
}

// A complete 1-bit code-length table over {0, 1}: "0" emits length 0,
// "1" emits length 1. Enough to write arbitrary sparse length tables.
void binary_cl_table(int out[19]) {
  for (int i = 0; i < 19; ++i) out[i] = 0;
  out[0] = 1;
  out[1] = 1;
}

TEST(InflateHardening, RejectsTooManyLiteralCodes) {
  int cl[19];
  binary_cl_table(cl);
  for (int hlit : {287, 288}) {  // 5-bit field reaches 288; max legal is 286
    BitSink b = dynamic_header(hlit, 1, cl);
    b.put(0xFFFFFFFF, 24);  // whatever follows, the header already failed
    expect_rejected(b, "hlit");
  }
}

TEST(InflateHardening, RejectsTooManyDistanceCodes) {
  int cl[19];
  binary_cl_table(cl);
  for (int hdist : {31, 32}) {  // max legal is 30
    BitSink b = dynamic_header(257, hdist, cl);
    b.put(0xFFFFFFFF, 24);
    expect_rejected(b, "hdist");
  }
}

TEST(InflateHardening, RejectsOversubscribedCodeLengthTable) {
  // Three 1-bit code-length codes: 3 * 2^-1 > 1 violates Kraft.
  int cl[19] = {0};
  cl[0] = cl[1] = cl[2] = 1;
  BitSink b = dynamic_header(257, 1, cl);
  b.put(0xFFFFFFFF, 24);
  expect_rejected(b, "oversubscribed CL table");
}

TEST(InflateHardening, RejectsIncompleteCodeLengthTable) {
  // A single 2-bit code leaves three quarters of the code space
  // undecodable; the CL table must be exactly complete.
  int cl[19] = {0};
  cl[0] = 2;
  BitSink b = dynamic_header(257, 1, cl);
  b.put(0xFFFFFFFF, 24);
  expect_rejected(b, "incomplete CL table");
}

TEST(InflateHardening, RejectsRepeatBeforeFirstCode) {
  // CL symbol 16 (copy previous) as the very first length entry.
  int cl[19] = {0};
  cl[16] = 1;
  cl[0] = 1;
  BitSink b = dynamic_header(257, 1, cl);
  b.put(1, 1);  // decode sym 16 ("1" in the canonical {0, 16} tree)
  b.put(0, 2);  // repeat count 3
  expect_rejected(b, "repeat before first code");
}

TEST(InflateHardening, RejectsRepeatPastTableEnd) {
  // Fill hlit + hdist = 258 entries, then zero-repeat 11 more via sym 18.
  int cl[19] = {0};
  cl[1] = 1;   // "0" -> length 1
  cl[18] = 1;  // "1" -> zero-run
  BitSink b = dynamic_header(257, 1, cl);
  for (int i = 0; i < 256; ++i) b.put(0, 1);  // 256 length-1 entries
  b.put(1, 1);  // sym 18
  b.put(0, 7);  // run of 11 zeros: 256 + 11 > 258
  expect_rejected(b, "repeat past end");
}

TEST(InflateHardening, RejectsOversubscribedLiteralTable) {
  // 258 literal/length codes all claiming length 1.
  int cl[19];
  binary_cl_table(cl);
  BitSink b = dynamic_header(257, 1, cl);
  for (int i = 0; i < 258; ++i) b.put(1, 1);  // "1" -> length 1
  expect_rejected(b, "oversubscribed literal table");
}

TEST(InflateHardening, RejectsIncompleteLiteralTableWithTwoCodes) {
  // Two 2-bit codes and nothing else: half the literal code space cannot
  // decode, and with more than one code in use that is malformed.
  int cl[19] = {0};
  cl[0] = 1;  // "0" -> length 0
  cl[2] = 1;  // "1" -> length 2
  BitSink b = dynamic_header(257, 1, cl);
  b.put(1, 1);                                // sym 0: length 2
  b.put(1, 1);                                // sym 1: length 2
  for (int i = 0; i < 255; ++i) b.put(0, 1);  // rest of hlit zero
  b.put(0, 1);                                // hdist entry zero
  expect_rejected(b, "incomplete literal table");
}

TEST(InflateHardening, RejectsIncompleteDistanceTableWithTwoCodes) {
  int cl[19] = {0};
  cl[0] = 1;  // "0" -> length 0
  cl[3] = 1;  // "1" -> length 3
  BitSink b = dynamic_header(257, 2, cl);
  b.put(1, 1);                                // literal 0: length 3 (times 8
  for (int i = 0; i < 7; ++i) b.put(1, 1);    //  -> exactly complete litlen)
  for (int i = 0; i < 249; ++i) b.put(0, 1);  // rest of hlit zero
  b.put(1, 1);                                // dist 0: length 3
  b.put(1, 1);                                // dist 1: length 3 (incomplete)
  expect_rejected(b, "incomplete distance table");
}

TEST(InflateHardening, AcceptsSingleCodeAndEmptyDistanceTables) {
  // The two degenerate-but-legal shapes real encoders emit: a matchless
  // stream (hdist = 1, the single distance length zero) and a one-distance
  // stream. Our encoder produces the former for incompressible chunks.
  const std::vector<std::uint8_t> no_matches = {0, 1, 2, 3, 4, 5, 6, 7};
  const auto packed =
      render::deflate_compress(no_matches.data(), no_matches.size());
  EXPECT_EQ(inflate_decompress(packed.data(), packed.size()), no_matches);

  std::vector<std::uint8_t> one_distance(64, 42);  // single run, dist 1
  const auto packed2 =
      render::deflate_compress(one_distance.data(), one_distance.size());
  EXPECT_EQ(inflate_decompress(packed2.data(), packed2.size()),
            one_distance);
}

TEST(InflateHardening, TruncatedDynamicHeaderThrows) {
  int cl[19];
  binary_cl_table(cl);
  const BitSink full = dynamic_header(257, 1, cl);
  for (std::size_t n = 0; n < full.bytes.size(); ++n) {
    EXPECT_THROW(inflate_decompress(full.bytes.data(), n), ParseError)
        << "prefix " << n;
  }
}

}  // namespace
}  // namespace jedule::util
