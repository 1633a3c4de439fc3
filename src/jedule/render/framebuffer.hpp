#pragma once

// Deterministic software rasterizer target: a 32-bit RGBA framebuffer with
// the handful of primitives a Gantt chart needs (filled/outlined rectangles,
// axis lines, hatching). Text drawing lives in font.hpp.

#include <cstdint>
#include <vector>

#include "jedule/color/color.hpp"

namespace jedule::render {

using color::Color;

/// Upper bound on a canvas's width x height: 2^26 pixels, 256 MiB of RGBA.
/// The option parsers reject a larger canvas before anything is allocated.
inline constexpr std::int64_t kMaxPixels = std::int64_t{1} << 26;

class Framebuffer {
 public:
  Framebuffer(int width, int height, Color background = color::kWhite);

  int width() const { return width_; }
  int height() const { return height_; }

  /// Raw pixels, row-major, 4 bytes (RGBA) per pixel.
  const std::vector<std::uint8_t>& pixels() const { return pixels_; }

  /// Raw pointer to row `y` (caller guarantees 0 <= y < height). The span
  /// rasterizer and the SIMD kernels write rows through this.
  std::uint8_t* row(int y) {
    return pixels_.data() + static_cast<std::size_t>(y) * width_ * 4;
  }
  const std::uint8_t* row(int y) const {
    return pixels_.data() + static_cast<std::size_t>(y) * width_ * 4;
  }

  void clear(Color c);

  /// Single pixel with source-over blending; out-of-bounds writes are
  /// silently clipped (callers pass unclamped geometry).
  void set_pixel(int x, int y, Color c);

  /// Pixel without blending or bounds checks (hot path; caller clips).
  void set_pixel_unchecked(int x, int y, Color c);

  Color pixel(int x, int y) const;

  /// Filled axis-aligned rectangle [x, x+w) x [y, y+h), clipped, blended.
  void fill_rect(int x, int y, int w, int h, Color c);

  /// 1-pixel rectangle outline.
  void draw_rect(int x, int y, int w, int h, Color c);

  void draw_hline(int x0, int x1, int y, Color c);
  void draw_vline(int x, int y0, int y1, Color c);

  /// Bresenham line (used for DAG structure exports).
  void draw_line(int x0, int y0, int x1, int y1, Color c);

  /// Diagonal hatching inside a rectangle, `spacing` pixels apart; the
  /// renderer uses it to keep composite tasks distinguishable in grayscale.
  void hatch_rect(int x, int y, int w, int h, int spacing, Color c);

  /// Copies all rows of `src` (same width, must fit) into this image
  /// starting at row `y`. The banded parallel painter calls this from
  /// worker threads; that is safe because the bands' row ranges are
  /// disjoint byte ranges of the pixel buffer.
  void blit_rows(const Framebuffer& src, int y);

  /// Copies `w` pixel columns of `src` (same height) starting at column
  /// `src_x` into this image at column `dst_x`, clipped to both images.
  /// The tile cache blits cached tile strips into a frame with this.
  void blit_cols(const Framebuffer& src, int dst_x, int src_x, int w);

  friend bool operator==(const Framebuffer& a, const Framebuffer& b) {
    return a.width_ == b.width_ && a.height_ == b.height_ &&
           a.pixels_ == b.pixels_;
  }

 private:
  int width_;
  int height_;
  std::vector<std::uint8_t> pixels_;
};

}  // namespace jedule::render
