#include "jedule/render/deflate.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <utility>

#include "jedule/util/error.hpp"
#include "jedule/util/parallel.hpp"

namespace jedule::render {

namespace {

#if defined(__x86_64__) || defined(__aarch64__)
constexpr bool kLittleEndianFastPath = true;
#else
constexpr bool kLittleEndianFastPath = false;
#endif

/// LSB-first bit writer (DEFLATE bit order).
class BitWriter {
 public:
  void put_bits(std::uint32_t value, int count) {
    JED_ASSERT(count >= 0 && count <= 24);
    acc_ |= static_cast<std::uint64_t>(value) << filled_;
    filled_ += count;
    while (filled_ >= 8) {
      out_.push_back(static_cast<std::uint8_t>(acc_ & 0xFF));
      acc_ >>= 8;
      filled_ -= 8;
    }
  }

  void align_to_byte() {
    if (filled_ > 0) {
      out_.push_back(static_cast<std::uint8_t>(acc_ & 0xFF));
      acc_ = 0;
      filled_ = 0;
    }
  }

  std::vector<std::uint8_t> take() {
    align_to_byte();
    return std::move(out_);
  }

  /// The written bits without padding: full bytes plus a partial tail byte.
  /// Used to stitch independently produced fragments bit-exactly.
  struct BitBuffer {
    std::vector<std::uint8_t> bytes;
    std::uint8_t tail = 0;  // low `tail_bits` bits are valid
    int tail_bits = 0;
  };

  BitBuffer take_bits() {
    BitBuffer b;
    b.bytes = std::move(out_);
    b.tail = static_cast<std::uint8_t>(acc_ & 0xFF);
    b.tail_bits = filled_;
    acc_ = 0;
    filled_ = 0;
    return b;
  }

  void append(const BitBuffer& b) {
    const std::size_t n = b.bytes.size();
    if (filled_ == 0) {
      out_.insert(out_.end(), b.bytes.begin(), b.bytes.end());
    } else {
      std::size_t i = 0;
      if constexpr (kLittleEndianFastPath) {
        // Stream 8 input bytes per step through the accumulator instead of
        // re-entering put_bits per byte — the stitch is serial, so this is
        // the one merge loop every parallel compression funnels through.
        const int shift = filled_;
        out_.reserve(out_.size() + n + 1);
        for (; i + 8 <= n; i += 8) {
          std::uint64_t v;
          std::memcpy(&v, b.bytes.data() + i, 8);
          const std::uint64_t lo = acc_ | (v << shift);
          std::uint8_t tmp[8];
          std::memcpy(tmp, &lo, 8);
          out_.insert(out_.end(), std::begin(tmp), std::end(tmp));
          acc_ = v >> (64 - shift);
        }
      }
      for (; i < n; ++i) put_bits(b.bytes[i], 8);
    }
    if (b.tail_bits > 0) put_bits(b.tail, b.tail_bits);
  }

 private:
  std::vector<std::uint8_t> out_;
  std::uint64_t acc_ = 0;
  int filled_ = 0;
};

// RFC 1951 §3.2.5 length code table: base length and extra bits per code
// 257..285.
struct LengthCode {
  int base;
  int extra;
};
constexpr LengthCode kLengthCodes[29] = {
    {3, 0},   {4, 0},   {5, 0},   {6, 0},   {7, 0},  {8, 0},  {9, 0},
    {10, 0},  {11, 1},  {13, 1},  {15, 1},  {17, 1}, {19, 2}, {23, 2},
    {27, 2},  {31, 2},  {35, 3},  {43, 3},  {51, 3}, {59, 3}, {67, 4},
    {83, 4},  {99, 4},  {115, 4}, {131, 5}, {163, 5}, {195, 5}, {227, 5},
    {258, 0}};

constexpr LengthCode kDistCodes[30] = {
    {1, 0},     {2, 0},     {3, 0},      {4, 0},      {5, 1},    {7, 1},
    {9, 2},     {13, 2},    {17, 3},     {25, 3},     {33, 4},   {49, 4},
    {65, 5},    {97, 5},    {129, 6},    {193, 6},    {257, 7},  {385, 7},
    {513, 8},   {769, 8},   {1025, 9},   {1537, 9},   {2049, 10}, {3073, 10},
    {4097, 11}, {6145, 11}, {8193, 12},  {12289, 12}, {16385, 13}, {24577, 13}};

constexpr int kNumLitLenSymbols = 286;
constexpr int kNumDistSymbols = 30;
constexpr int kNumClSymbols = 19;
constexpr int kMaxCodeBits = 15;
constexpr int kMaxClCodeBits = 7;

// RFC 1951 §3.2.7 transmission order of code-length code lengths.
constexpr int kClOrder[kNumClSymbols] = {16, 17, 18, 0, 8,  7, 9,  6, 10, 5,
                                         11, 4,  12, 3, 13, 2, 14, 1, 15};

inline std::uint16_t reverse_code(std::uint32_t code, int bits) {
  std::uint32_t r = 0;
  for (int i = 0; i < bits; ++i) r = (r << 1) | ((code >> i) & 1);
  return static_cast<std::uint16_t>(r);
}

/// Length/distance value → symbol lookups, built once.
struct SymbolTables {
  std::uint8_t length_sym[259];     // match length 3..258 → code 0..28
  std::uint8_t dist_sym_small[257]; // distance 1..256 → code
  std::uint8_t dist_sym_large[256]; // distance d ≥ 257 → code via (d-1)>>7
};

const SymbolTables& symbol_tables() {
  static const SymbolTables tables = [] {
    SymbolTables t{};
    for (int len = 3; len <= 258; ++len) {
      int code = 28;
      while (code > 0 && kLengthCodes[code].base > len) --code;
      // Length 258 belongs to code 285 though code 284's range reaches 257.
      if (len == 258) code = 28;
      t.length_sym[len] = static_cast<std::uint8_t>(code);
    }
    for (int dist = 1; dist <= 32768; ++dist) {
      int code = 29;
      while (code > 0 && kDistCodes[code].base > dist) --code;
      if (dist <= 256) {
        t.dist_sym_small[dist] = static_cast<std::uint8_t>(code);
      } else {
        t.dist_sym_large[(dist - 1) >> 7] = static_cast<std::uint8_t>(code);
      }
    }
    return t;
  }();
  return tables;
}

inline int length_symbol(const SymbolTables& t, int len) {
  return t.length_sym[len];
}

inline int dist_symbol(const SymbolTables& t, int dist) {
  return dist <= 256 ? t.dist_sym_small[dist]
                     : t.dist_sym_large[(dist - 1) >> 7];
}

inline int fixed_litlen_bits(int sym) {
  if (sym <= 143) return 8;
  if (sym <= 255) return 9;
  if (sym <= 279) return 7;
  return 8;
}

/// RFC 1951 §3.2.6 fixed codes, pre-reversed for the LSB-first writer.
struct FixedCodes {
  std::uint8_t ll_len[kNumLitLenSymbols];
  std::uint16_t ll_code[kNumLitLenSymbols];
  std::uint8_t d_len[kNumDistSymbols];
  std::uint16_t d_code[kNumDistSymbols];
};

const FixedCodes& fixed_codes() {
  static const FixedCodes codes = [] {
    FixedCodes f{};
    for (int s = 0; s < kNumLitLenSymbols; ++s) {
      f.ll_len[s] = static_cast<std::uint8_t>(fixed_litlen_bits(s));
      std::uint32_t code;
      if (s <= 143) {
        code = 0x30 + static_cast<std::uint32_t>(s);
      } else if (s <= 255) {
        code = 0x190 + static_cast<std::uint32_t>(s) - 144;
      } else if (s <= 279) {
        code = static_cast<std::uint32_t>(s) - 256;
      } else {
        code = 0xC0 + static_cast<std::uint32_t>(s) - 280;
      }
      f.ll_code[s] = reverse_code(code, f.ll_len[s]);
    }
    for (int s = 0; s < kNumDistSymbols; ++s) {
      f.d_len[s] = 5;
      f.d_code[s] = reverse_code(static_cast<std::uint32_t>(s), 5);
    }
    return f;
  }();
  return codes;
}

/// In-place minimum-redundancy code lengths (Moffat & Katajainen). `a`
/// holds the used symbols' frequencies in ascending order; on return a[i]
/// is the unbounded Huffman code length for that slot. Requires n >= 2.
void minimum_redundancy(std::uint32_t* a, int n) {
  int root = 0;
  int leaf = 2;
  a[0] += a[1];
  for (int next = 1; next < n - 1; ++next) {
    if (leaf >= n || a[root] < a[leaf]) {
      a[next] = a[root];
      a[root++] = static_cast<std::uint32_t>(next);
    } else {
      a[next] = a[leaf++];
    }
    if (leaf >= n || (root < next && a[root] < a[leaf])) {
      a[next] += a[root];
      a[root++] = static_cast<std::uint32_t>(next);
    } else {
      a[next] += a[leaf++];
    }
  }
  a[n - 2] = 0;
  for (int next = n - 3; next >= 0; --next) a[next] = a[a[next]] + 1;
  int avail = 1;
  int used = 0;
  int depth = 0;
  root = n - 2;
  int next = n - 1;
  while (avail > 0) {
    while (root >= 0 && static_cast<int>(a[root]) == depth) {
      ++used;
      --root;
    }
    while (avail > used) {
      a[next--] = static_cast<std::uint32_t>(depth);
      --avail;
    }
    avail = 2 * used;
    ++depth;
    used = 0;
  }
}

/// Canonical length-limited Huffman code over `n` symbols: fills `lengths`
/// (0 for unused symbols) and LSB-first `codes` ready for put_bits. The
/// code depends only on the frequency histogram, so identical chunks
/// produce identical blocks on any thread.
void build_huffman(const std::uint32_t* freq, int n, int max_bits,
                   std::uint8_t* lengths, std::uint16_t* codes) {
  std::fill_n(lengths, n, static_cast<std::uint8_t>(0));
  std::fill_n(codes, n, static_cast<std::uint16_t>(0));

  // (frequency, symbol) ascending; the symbol index breaks ties.
  std::array<std::pair<std::uint32_t, int>, kNumLitLenSymbols> order;
  int used = 0;
  for (int s = 0; s < n; ++s) {
    if (freq[s] > 0) order[used++] = {freq[s], s};
  }
  if (used == 0) return;
  if (used == 1) {
    lengths[order[0].second] = 1;
  } else {
    std::sort(order.begin(), order.begin() + used);
    std::array<std::uint32_t, kNumLitLenSymbols> work;
    for (int i = 0; i < used; ++i) work[i] = order[i].first;
    minimum_redundancy(work.data(), used);

    // Histogram of code lengths, over-long codes clamped to max_bits...
    std::array<int, kMaxCodeBits + 1> count{};
    for (int i = 0; i < used; ++i) {
      count[std::min<int>(static_cast<int>(work[i]), max_bits)]++;
    }
    // ...then repaired until the Kraft sum fits: each step promotes one
    // max-length code and demotes an interior one, shrinking the sum by 1.
    std::uint32_t total = 0;
    for (int l = 1; l <= max_bits; ++l) {
      total += static_cast<std::uint32_t>(count[l]) << (max_bits - l);
    }
    while (total > (1u << max_bits)) {
      count[max_bits]--;
      for (int l = max_bits - 1; l >= 1; --l) {
        if (count[l] > 0) {
          count[l]--;
          count[l + 1] += 2;
          break;
        }
      }
      total--;
    }
    // Least frequent symbols take the longest codes.
    int idx = 0;
    for (int l = max_bits; l >= 1; --l) {
      for (int k = 0; k < count[l]; ++k) {
        lengths[order[idx++].second] = static_cast<std::uint8_t>(l);
      }
    }
  }

  // Canonical code assignment (RFC 1951 §3.2.2), stored bit-reversed.
  std::array<int, kMaxCodeBits + 1> bl_count{};
  for (int s = 0; s < n; ++s) bl_count[lengths[s]]++;
  bl_count[0] = 0;
  std::array<std::uint32_t, kMaxCodeBits + 1> next_code{};
  std::uint32_t code = 0;
  for (int bits = 1; bits <= max_bits; ++bits) {
    code = (code + static_cast<std::uint32_t>(bl_count[bits - 1])) << 1;
    next_code[bits] = code;
  }
  for (int s = 0; s < n; ++s) {
    if (const int l = lengths[s]; l > 0) {
      codes[s] = reverse_code(next_code[l]++, l);
    }
  }
}

constexpr int kMinMatch = 3;
constexpr int kMaxMatch = 258;
constexpr int kWindowSize = 32768;
constexpr int kHashBits = 15;
constexpr int kHashSize = 1 << kHashBits;
constexpr int kMaxChainLength = 64;
/// Matches at least this long are taken immediately — the lazy one-byte
/// deferral almost never beats them and the extra probe costs real time.
constexpr int kLazyMatch = 128;
constexpr std::uint32_t kNoPos = 0xFFFFFFFFu;

/// Input chunk fed to one block. Must stay put: moving the grid would
/// change the bit stream and break cross-thread determinism.
constexpr std::size_t kDeflateChunk = 1 << 18;

/// Match/literal token stream of one chunk plus its symbol statistics.
/// Tokens: literals are the byte value; matches set bit 31 and pack
/// distance<<9 | length.
struct ChunkScratch {
  std::vector<std::uint32_t> head;
  std::vector<std::uint32_t> prev;
  std::vector<std::uint32_t> tokens;
  std::uint32_t lit_freq[kNumLitLenSymbols];
  std::uint32_t dist_freq[kNumDistSymbols];
};

ChunkScratch& chunk_scratch() {
  thread_local ChunkScratch s;
  return s;
}

constexpr std::uint32_t kMatchFlag = 0x80000000u;

inline std::uint32_t hash3(const std::uint8_t* p) {
  const std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
                          (static_cast<std::uint32_t>(p[1]) << 8) |
                          (static_cast<std::uint32_t>(p[2]) << 16);
  return (v * 2654435761u) >> (32 - kHashBits);
}

inline int match_length(const std::uint8_t* a, const std::uint8_t* b,
                        int max_len) {
  int len = 0;
  if constexpr (kLittleEndianFastPath) {
    while (len + 8 <= max_len) {
      std::uint64_t va;
      std::uint64_t vb;
      std::memcpy(&va, a + len, 8);
      std::memcpy(&vb, b + len, 8);
      if (const std::uint64_t diff = va ^ vb; diff != 0) {
        return len + (std::countr_zero(diff) >> 3);
      }
      len += 8;
    }
  }
  while (len < max_len && a[len] == b[len]) ++len;
  return len;
}

/// Lazy hash-chain LZ77 over one chunk. Matches never reach before `data`,
/// so the token stream is a pure function of the chunk bytes.
void tokenize_chunk(const std::uint8_t* data, std::size_t size,
                    ChunkScratch& s) {
  const SymbolTables& sym = symbol_tables();
  s.tokens.clear();
  s.tokens.reserve(size / 2 + 16);
  std::fill_n(s.lit_freq, kNumLitLenSymbols, 0u);
  std::fill_n(s.dist_freq, kNumDistSymbols, 0u);
  s.head.assign(kHashSize, kNoPos);
  if (s.prev.size() < size) s.prev.resize(size);

  const auto find_and_insert = [&](std::size_t pos, int* best_len,
                                   int* best_dist) {
    *best_len = 0;
    *best_dist = 0;
    if (pos + kMinMatch > size) return;
    const std::uint32_t h = hash3(data + pos);
    std::uint32_t candidate = s.head[h];
    const int max_len =
        static_cast<int>(std::min<std::size_t>(kMaxMatch, size - pos));
    const std::uint8_t* b = data + pos;
    int chain = kMaxChainLength;
    while (candidate != kNoPos && chain-- > 0) {
      const std::size_t dist = pos - candidate;
      if (dist > kWindowSize) break;
      const std::uint8_t* a = data + candidate;
      // A longer match must improve on the current best at its end byte.
      if (*best_len > 0 && a[*best_len] != b[*best_len]) {
        candidate = s.prev[candidate];
        continue;
      }
      const int len = match_length(a, b, max_len);
      if (len > *best_len) {
        *best_len = len;
        *best_dist = static_cast<int>(dist);
        if (len == max_len) break;
      }
      candidate = s.prev[candidate];
    }
    s.prev[pos] = s.head[h];
    s.head[h] = static_cast<std::uint32_t>(pos);
  };

  const auto insert_range = [&](std::size_t from, std::size_t to) {
    const std::size_t stop = std::min(to, size >= kMinMatch ? size - kMinMatch + 1 : 0);
    for (std::size_t p = from; p < stop; ++p) {
      const std::uint32_t h = hash3(data + p);
      s.prev[p] = s.head[h];
      s.head[h] = static_cast<std::uint32_t>(p);
    }
  };

  const auto emit_literal = [&](std::uint8_t b) {
    s.tokens.push_back(b);
    s.lit_freq[b]++;
  };
  const auto emit_match = [&](int len, int dist) {
    s.tokens.push_back(kMatchFlag |
                       (static_cast<std::uint32_t>(dist) << 9) |
                       static_cast<std::uint32_t>(len));
    s.lit_freq[257 + length_symbol(sym, len)]++;
    s.dist_freq[dist_symbol(sym, dist)]++;
  };

  std::size_t pos = 0;
  while (pos < size) {
    int len0;
    int dist0;
    find_and_insert(pos, &len0, &dist0);
    if (len0 < kMinMatch) {
      emit_literal(data[pos]);
      ++pos;
      continue;
    }
    if (len0 < kLazyMatch && pos + 1 < size) {
      // Lazy probe: a longer match one byte later beats taking this one.
      int len1;
      int dist1;
      find_and_insert(pos + 1, &len1, &dist1);
      if (len1 > len0) {
        emit_literal(data[pos]);
        emit_match(len1, dist1);
        insert_range(pos + 2, pos + 1 + static_cast<std::size_t>(len1));
        pos += 1 + static_cast<std::size_t>(len1);
        continue;
      }
      emit_match(len0, dist0);
      insert_range(pos + 2, pos + static_cast<std::size_t>(len0));
      pos += static_cast<std::size_t>(len0);
      continue;
    }
    emit_match(len0, dist0);
    insert_range(pos + 1, pos + static_cast<std::size_t>(len0));
    pos += static_cast<std::size_t>(len0);
  }
}

void emit_tokens(BitWriter& bw, const std::vector<std::uint32_t>& tokens,
                 const std::uint8_t* ll_len, const std::uint16_t* ll_code,
                 const std::uint8_t* d_len, const std::uint16_t* d_code) {
  const SymbolTables& sym = symbol_tables();
  for (const std::uint32_t t : tokens) {
    if ((t & kMatchFlag) == 0) {
      bw.put_bits(ll_code[t], ll_len[t]);
      continue;
    }
    const int len = static_cast<int>(t & 0x1FF);
    const int dist = static_cast<int>((t >> 9) & 0xFFFF);
    const int lc = length_symbol(sym, len);
    bw.put_bits(ll_code[257 + lc], ll_len[257 + lc]);
    bw.put_bits(static_cast<std::uint32_t>(len - kLengthCodes[lc].base),
                kLengthCodes[lc].extra);
    const int dc = dist_symbol(sym, dist);
    bw.put_bits(d_code[dc], d_len[dc]);
    bw.put_bits(static_cast<std::uint32_t>(dist - kDistCodes[dc].base),
                kDistCodes[dc].extra);
  }
  bw.put_bits(ll_code[256], ll_len[256]);  // end of block
}

/// Everything needed to emit one dynamic-Huffman block header, plus its
/// exact bit costs for the fixed-vs-dynamic decision.
struct DynamicPlan {
  std::uint8_t ll_len[kNumLitLenSymbols];
  std::uint16_t ll_code[kNumLitLenSymbols];
  std::uint8_t d_len[kNumDistSymbols];
  std::uint16_t d_code[kNumDistSymbols];
  std::uint8_t cl_len[kNumClSymbols];
  std::uint16_t cl_code[kNumClSymbols];
  struct ClOp {
    std::uint8_t sym;  // 0..18
    std::uint8_t arg;  // repeat count payload for 16/17/18
  };
  std::vector<ClOp> ops;
  int hlit = 257;
  int hdist = 1;
  int hclen = 4;
  std::uint64_t header_bits = 0;
  std::uint64_t body_bits = 0;
};

inline int cl_extra_bits(int sym) {
  return sym == 16 ? 2 : sym == 17 ? 3 : sym == 18 ? 7 : 0;
}

void build_dynamic_plan(const std::uint32_t* lit_freq,
                        const std::uint32_t* dist_freq, DynamicPlan& plan) {
  build_huffman(lit_freq, kNumLitLenSymbols, kMaxCodeBits, plan.ll_len,
                plan.ll_code);
  build_huffman(dist_freq, kNumDistSymbols, kMaxCodeBits, plan.d_len,
                plan.d_code);

  plan.hlit = kNumLitLenSymbols;
  while (plan.hlit > 257 && plan.ll_len[plan.hlit - 1] == 0) plan.hlit--;
  plan.hdist = kNumDistSymbols;
  while (plan.hdist > 1 && plan.d_len[plan.hdist - 1] == 0) plan.hdist--;

  // RLE over the concatenated code-length array (RFC 1951 §3.2.7).
  std::array<std::uint8_t, kNumLitLenSymbols + kNumDistSymbols> all;
  int total = 0;
  for (int s = 0; s < plan.hlit; ++s) all[total++] = plan.ll_len[s];
  for (int s = 0; s < plan.hdist; ++s) all[total++] = plan.d_len[s];

  plan.ops.clear();
  std::uint32_t cl_freq[kNumClSymbols] = {};
  const auto push = [&](int sym, int arg) {
    plan.ops.push_back({static_cast<std::uint8_t>(sym),
                        static_cast<std::uint8_t>(arg)});
    cl_freq[sym]++;
  };
  for (int i = 0; i < total;) {
    const std::uint8_t v = all[i];
    int run = 1;
    while (i + run < total && all[i + run] == v) ++run;
    i += run;
    if (v == 0) {
      while (run >= 11) {
        const int n = std::min(run, 138);
        push(18, n - 11);
        run -= n;
      }
      if (run >= 3) {
        push(17, run - 3);
        run = 0;
      }
      while (run-- > 0) push(0, 0);
    } else {
      push(v, 0);
      --run;
      while (run >= 3) {
        const int n = std::min(run, 6);
        push(16, n - 3);
        run -= n;
      }
      while (run-- > 0) push(v, 0);
    }
  }

  // A single-symbol code-length table would be incomplete, which strict
  // decoders (including our hardened inflate) reject for the header table;
  // gift a second length-1 code to an unused early symbol instead.
  int cl_used = 0;
  int cl_only = -1;
  for (int s = 0; s < kNumClSymbols; ++s) {
    if (cl_freq[s] > 0) {
      ++cl_used;
      cl_only = s;
    }
  }
  if (cl_used == 1) cl_freq[cl_only == 0 ? 18 : 0] = 1;
  build_huffman(cl_freq, kNumClSymbols, kMaxClCodeBits, plan.cl_len,
                plan.cl_code);

  plan.hclen = kNumClSymbols;
  while (plan.hclen > 4 && plan.cl_len[kClOrder[plan.hclen - 1]] == 0) {
    plan.hclen--;
  }

  plan.header_bits = 5 + 5 + 4 + 3 * static_cast<std::uint64_t>(plan.hclen);
  for (const auto& op : plan.ops) {
    plan.header_bits += plan.cl_len[op.sym] + cl_extra_bits(op.sym);
  }
  plan.body_bits = 0;
  for (int s = 0; s < kNumLitLenSymbols; ++s) {
    plan.body_bits +=
        static_cast<std::uint64_t>(lit_freq[s]) * plan.ll_len[s];
  }
  for (int c = 0; c < 29; ++c) {
    plan.body_bits += static_cast<std::uint64_t>(lit_freq[257 + c]) *
                      kLengthCodes[c].extra;
  }
  for (int c = 0; c < kNumDistSymbols; ++c) {
    plan.body_bits += static_cast<std::uint64_t>(dist_freq[c]) *
                      (plan.d_len[c] + kDistCodes[c].extra);
  }
}

std::uint64_t fixed_body_cost(const std::uint32_t* lit_freq,
                              const std::uint32_t* dist_freq) {
  std::uint64_t bits = 0;
  for (int s = 0; s < kNumLitLenSymbols; ++s) {
    bits += static_cast<std::uint64_t>(lit_freq[s]) * fixed_litlen_bits(s);
  }
  for (int c = 0; c < 29; ++c) {
    bits += static_cast<std::uint64_t>(lit_freq[257 + c]) *
            kLengthCodes[c].extra;
  }
  for (int c = 0; c < kNumDistSymbols; ++c) {
    bits += static_cast<std::uint64_t>(dist_freq[c]) *
            (5 + kDistCodes[c].extra);
  }
  return bits;
}

/// One complete block over [data, data+size): tokenize once, then emit
/// through the dynamic code when its exact cost (header included) beats the
/// fixed code, else through the fixed code.
void deflate_chunk(const std::uint8_t* data, std::size_t size, bool final,
                   BitWriter& bw) {
  ChunkScratch& s = chunk_scratch();
  tokenize_chunk(data, size, s);
  s.lit_freq[256]++;  // every block ends with the EOB symbol

  DynamicPlan plan;
  build_dynamic_plan(s.lit_freq, s.dist_freq, plan);
  if (plan.header_bits + plan.body_bits <
      fixed_body_cost(s.lit_freq, s.dist_freq)) {
    bw.put_bits(final ? 1 : 0, 1);  // BFINAL
    bw.put_bits(2, 2);              // BTYPE = 10 (dynamic Huffman)
    bw.put_bits(static_cast<std::uint32_t>(plan.hlit - 257), 5);
    bw.put_bits(static_cast<std::uint32_t>(plan.hdist - 1), 5);
    bw.put_bits(static_cast<std::uint32_t>(plan.hclen - 4), 4);
    for (int i = 0; i < plan.hclen; ++i) {
      bw.put_bits(plan.cl_len[kClOrder[i]], 3);
    }
    for (const auto& op : plan.ops) {
      bw.put_bits(plan.cl_code[op.sym], plan.cl_len[op.sym]);
      if (const int extra = cl_extra_bits(op.sym); extra > 0) {
        bw.put_bits(op.arg, extra);
      }
    }
    emit_tokens(bw, s.tokens, plan.ll_len, plan.ll_code, plan.d_len,
                plan.d_code);
    return;
  }

  const FixedCodes& fc = fixed_codes();
  bw.put_bits(final ? 1 : 0, 1);  // BFINAL
  bw.put_bits(1, 2);              // BTYPE = 01 (fixed Huffman)
  emit_tokens(bw, s.tokens, fc.ll_len, fc.ll_code, fc.d_len, fc.d_code);
}

}  // namespace

std::vector<std::uint8_t> deflate_compress(const std::uint8_t* data,
                                           std::size_t size, int threads) {
  const std::size_t chunks =
      size == 0 ? 1 : (size + kDeflateChunk - 1) / kDeflateChunk;
  std::vector<BitWriter::BitBuffer> parts(chunks);
  util::parallel_for(chunks, threads, [&](std::size_t i) {
    BitWriter bw;
    const std::size_t off = i * kDeflateChunk;
    deflate_chunk(data + off, std::min(kDeflateChunk, size - off),
                  i + 1 == chunks, bw);
    parts[i] = bw.take_bits();
  });
  BitWriter out;
  for (const auto& part : parts) out.append(part);
  return out.take();
}

std::vector<std::uint8_t> deflate_store(const std::uint8_t* data,
                                        std::size_t size) {
  std::vector<std::uint8_t> out;
  std::size_t pos = 0;
  do {
    const std::size_t chunk = std::min<std::size_t>(size - pos, 65535);
    const bool final = pos + chunk == size;
    out.push_back(final ? 1 : 0);  // BFINAL, BTYPE=00, byte-aligned
    const auto len = static_cast<std::uint16_t>(chunk);
    out.push_back(static_cast<std::uint8_t>(len & 0xFF));
    out.push_back(static_cast<std::uint8_t>(len >> 8));
    out.push_back(static_cast<std::uint8_t>(~len & 0xFF));
    out.push_back(static_cast<std::uint8_t>((~len >> 8) & 0xFF));
    out.insert(out.end(), data + pos, data + pos + chunk);
    pos += chunk;
  } while (pos < size);
  return out;
}

std::vector<std::uint8_t> zlib_compress(const std::uint8_t* data,
                                        std::size_t size, int threads) {
  std::vector<std::uint8_t> out;
  out.push_back(0x78);  // CMF: deflate, 32K window
  out.push_back(0x01);  // FLG: fastest, no dict; (0x7801 % 31 == 0)
  auto body = deflate_compress(data, size, threads);
  out.insert(out.end(), body.begin(), body.end());

  std::uint32_t a;
  if (threads <= 1 || size <= kDeflateChunk) {
    a = adler32(data, size);
  } else {
    // Checksum the same chunk grid on the workers, combine at stitch time.
    const std::size_t chunks = (size + kDeflateChunk - 1) / kDeflateChunk;
    std::vector<std::uint32_t> parts(chunks);
    util::parallel_for(chunks, threads, [&](std::size_t i) {
      const std::size_t off = i * kDeflateChunk;
      parts[i] = adler32(data + off, std::min(kDeflateChunk, size - off));
    });
    a = parts[0];
    for (std::size_t i = 1; i < chunks; ++i) {
      a = adler32_combine(a, parts[i],
                          std::min(kDeflateChunk, size - i * kDeflateChunk));
    }
  }
  out.push_back(static_cast<std::uint8_t>(a >> 24));
  out.push_back(static_cast<std::uint8_t>(a >> 16));
  out.push_back(static_cast<std::uint8_t>(a >> 8));
  out.push_back(static_cast<std::uint8_t>(a));
  return out;
}

std::vector<std::uint8_t> gzip_compress(const std::uint8_t* data,
                                        std::size_t size, int threads) {
  // Deterministic member header: no flags, MTIME=0, XFL=0, OS=255 (unknown).
  std::vector<std::uint8_t> out = {0x1F, 0x8B, 0x08, 0x00, 0x00,
                                   0x00, 0x00, 0x00, 0x00, 0xFF};
  auto body = deflate_compress(data, size, threads);
  out.insert(out.end(), body.begin(), body.end());
  const std::uint32_t crc = crc32_parallel(data, size, threads);
  const auto isize = static_cast<std::uint32_t>(size);
  for (const std::uint32_t v : {crc, isize}) {
    out.push_back(static_cast<std::uint8_t>(v & 0xFF));
    out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
    out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xFF));
    out.push_back(static_cast<std::uint8_t>((v >> 24) & 0xFF));
  }
  return out;
}

}  // namespace jedule::render
