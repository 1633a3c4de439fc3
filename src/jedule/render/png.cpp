#include "jedule/render/png.hpp"

#include <cstring>

#include "jedule/io/file.hpp"
#include "jedule/render/deflate.hpp"
#include "jedule/render/kernels.hpp"
#include "jedule/util/error.hpp"
#include "jedule/util/inflate.hpp"
#include "jedule/util/parallel.hpp"

namespace jedule::render {

namespace {

void put_u32(std::string& out, std::uint32_t v) {
  out += static_cast<char>(v >> 24);
  out += static_cast<char>(v >> 16);
  out += static_cast<char>(v >> 8);
  out += static_cast<char>(v);
}

void put_chunk(std::string& out, const char type[4], const std::string& data,
               int threads = 1) {
  put_u32(out, static_cast<std::uint32_t>(data.size()));
  const std::size_t crc_start = out.size();
  out.append(type, 4);
  out += data;
  const std::uint32_t crc = crc32_parallel(
      reinterpret_cast<const std::uint8_t*>(out.data() + crc_start),
      out.size() - crc_start, threads);
  put_u32(out, crc);
}

constexpr std::size_t kBytesPerPixel = 3;  // the encoder always emits RGB

// Reverses PNG scanline filter `type` in place: `cur` holds the filtered
// bytes on entry and the reconstructed row on return. `prev` is the prior
// *reconstructed* row (`n` zero bytes for the first scanline).
void png_unfilter_row(int type, std::uint8_t* cur, const std::uint8_t* prev,
                      std::size_t n, std::size_t bpp) {
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
            cur[i] + kernels::paeth_predict(cur[i - bpp], prev[i],
                                            prev[i - bpp]));
      }
      break;
  }
}

}  // namespace

std::vector<std::uint8_t> filter_scanlines(const Framebuffer& fb,
                                           int threads) {
  const auto width = static_cast<std::size_t>(fb.width());
  const auto height = static_cast<std::size_t>(fb.height());
  const std::size_t rowlen = width * kBytesPerPixel;
  const std::size_t stride = rowlen + 1;  // + filter-type byte

  // Pass 1: pack RGBA pixels into raw RGB rows (no filter bytes) so the
  // filter pass can read any row's unfiltered predecessor.
  std::vector<std::uint8_t> rgb(rowlen * height);
  const auto& px = fb.pixels();
  util::parallel_for(height, threads, [&](std::size_t y) {
    std::uint8_t* row = rgb.data() + y * rowlen;
    const std::uint8_t* src = px.data() + y * width * 4;
    for (std::size_t x = 0; x < width; ++x) {
      row[x * 3] = src[x * 4];
      row[x * 3 + 1] = src[x * 4 + 1];
      row[x * 3 + 2] = src[x * 4 + 2];
    }
  });

  // Pass 2: per row, score all five filters by sum of absolute differences
  // and keep the cheapest (ties go to the lowest filter type). The choice
  // is a pure function of the row bytes, so output is identical for every
  // thread count; SAD is exact integer math, so it is also identical for
  // every SIMD kernel.
  std::vector<std::uint8_t> out(stride * height);
  const std::vector<std::uint8_t> zero_row(rowlen, 0);
  const kernels::Kernels& k = kernels::active();
  util::parallel_for(height, threads, [&](std::size_t y) {
    const std::uint8_t* cur = rgb.data() + y * rowlen;
    const std::uint8_t* prev = y > 0 ? cur - rowlen : zero_row.data();
    thread_local std::vector<std::uint8_t> scratch;
    if (scratch.size() < rowlen * 4) scratch.resize(rowlen * 4);

    int best = 0;
    std::uint64_t best_score = k.png_sad(cur, rowlen);
    for (int type = 1; type <= 4; ++type) {
      std::uint8_t* cand = scratch.data() + (type - 1) * rowlen;
      k.png_filter_row(type, cand, cur, prev, rowlen, kBytesPerPixel);
      const std::uint64_t score = k.png_sad(cand, rowlen);
      if (score < best_score) {
        best = type;
        best_score = score;
      }
    }

    std::uint8_t* dst = out.data() + y * stride;
    dst[0] = static_cast<std::uint8_t>(best);
    if (best == 0) {
      std::memcpy(dst + 1, cur, rowlen);
    } else {
      std::memcpy(dst + 1, scratch.data() + (best - 1) * rowlen, rowlen);
    }
  });
  return out;
}

std::string encode_png(const Framebuffer& fb, int threads) {
  std::string out("\x89PNG\r\n\x1a\n", 8);

  std::string ihdr;
  put_u32(ihdr, static_cast<std::uint32_t>(fb.width()));
  put_u32(ihdr, static_cast<std::uint32_t>(fb.height()));
  ihdr += static_cast<char>(8);  // bit depth
  ihdr += static_cast<char>(2);  // color type: truecolor RGB
  ihdr += static_cast<char>(0);  // compression
  ihdr += static_cast<char>(0);  // filter method
  ihdr += static_cast<char>(0);  // no interlace
  put_chunk(out, "IHDR", ihdr);

  const auto raw = filter_scanlines(fb, threads);
  const auto z = zlib_compress(raw.data(), raw.size(), threads);
  put_chunk(out, "IDAT",
            std::string(reinterpret_cast<const char*>(z.data()), z.size()),
            threads);
  put_chunk(out, "IEND", "");
  return out;
}

void save_png(const Framebuffer& fb, const std::string& path, int threads) {
  io::write_file(path, encode_png(fb, threads));
}

Framebuffer decode_png(const std::string& bytes) {
  const auto* data = reinterpret_cast<const std::uint8_t*>(bytes.data());
  const std::size_t size = bytes.size();
  if (size < 8 || std::memcmp(data, "\x89PNG\r\n\x1a\n", 8) != 0) {
    throw ParseError("png: bad signature");
  }
  auto read_u32 = [&](std::size_t pos) {
    return (static_cast<std::uint32_t>(data[pos]) << 24) |
           (static_cast<std::uint32_t>(data[pos + 1]) << 16) |
           (static_cast<std::uint32_t>(data[pos + 2]) << 8) |
           static_cast<std::uint32_t>(data[pos + 3]);
  };

  int width = 0;
  int height = 0;
  int channels = 0;
  std::vector<std::uint8_t> idat;
  std::size_t pos = 8;
  bool done = false;
  while (!done) {
    if (pos + 8 > size) throw ParseError("png: truncated chunk header");
    const std::uint32_t len = read_u32(pos);
    const char* type = reinterpret_cast<const char*>(data + pos + 4);
    if (pos + 12 + len > size) throw ParseError("png: truncated chunk");
    const std::uint8_t* body = data + pos + 8;
    if (std::memcmp(type, "IHDR", 4) == 0) {
      if (len != 13) throw ParseError("png: bad IHDR");
      // Checked before IDAT is inflated. Both factors are below 2^32, so
      // the product cannot wrap.
      const std::uint64_t w = read_u32(pos + 8);
      const std::uint64_t h = read_u32(pos + 12);
      if (w * h > static_cast<std::uint64_t>(kMaxPixels)) {
        throw ParseError("png: " + std::to_string(w) + "x" +
                         std::to_string(h) + " image exceeds the " +
                         std::to_string(kMaxPixels) + "-pixel bound");
      }
      width = static_cast<int>(w);
      height = static_cast<int>(h);
      if (body[8] != 8) throw ParseError("png: only 8-bit depth supported");
      if (body[9] == 2) channels = 3;
      else if (body[9] == 6) channels = 4;
      else throw ParseError("png: only RGB/RGBA supported");
      if (body[12] != 0) throw ParseError("png: interlacing unsupported");
    } else if (std::memcmp(type, "IDAT", 4) == 0) {
      idat.insert(idat.end(), body, body + len);
    } else if (std::memcmp(type, "IEND", 4) == 0) {
      done = true;
    }
    pos += 12 + len;
  }
  if (width <= 0 || height <= 0 || channels == 0) {
    throw ParseError("png: missing IHDR");
  }

  const auto raw = util::zlib_decompress(idat.data(), idat.size());
  const std::size_t stride =
      static_cast<std::size_t>(width) * static_cast<std::size_t>(channels) + 1;
  if (raw.size() != stride * static_cast<std::size_t>(height)) {
    throw ParseError("png: pixel data size mismatch");
  }

  std::vector<std::uint8_t> img(stride * static_cast<std::size_t>(height));
  const std::size_t rowlen = stride - 1;
  const std::vector<std::uint8_t> zero_row(rowlen, 0);
  const auto bpp = static_cast<std::size_t>(channels);
  for (int y = 0; y < height; ++y) {
    const std::uint8_t* src =
        raw.data() + static_cast<std::size_t>(y) * stride;
    std::uint8_t* dst = img.data() + static_cast<std::size_t>(y) * stride;
    const std::uint8_t* above =
        y > 0 ? img.data() + static_cast<std::size_t>(y - 1) * stride + 1
              : zero_row.data();
    const int filter = src[0];
    if (filter > 4) throw ParseError("png: unknown filter type");
    dst[0] = 0;
    std::memcpy(dst + 1, src + 1, rowlen);
    png_unfilter_row(filter, dst + 1, above, rowlen, bpp);
  }

  Framebuffer fb(width, height);
  for (int y = 0; y < height; ++y) {
    const std::uint8_t* row =
        img.data() + static_cast<std::size_t>(y) * stride + 1;
    for (int x = 0; x < width; ++x) {
      Color c;
      c.r = row[x * channels];
      c.g = row[x * channels + 1];
      c.b = row[x * channels + 2];
      c.a = channels == 4 ? row[x * channels + 3] : 255;
      fb.set_pixel_unchecked(x, y, c);
    }
  }
  return fb;
}

}  // namespace jedule::render
