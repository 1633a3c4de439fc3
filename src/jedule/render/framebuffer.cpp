#include "jedule/render/framebuffer.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "jedule/render/kernels.hpp"
#include "jedule/util/error.hpp"

namespace jedule::render {

Framebuffer::Framebuffer(int width, int height, Color background)
    : width_(width), height_(height) {
  JED_ASSERT(width > 0 && height > 0);
  JED_ASSERT(static_cast<std::int64_t>(width) * height <= kMaxPixels);
  pixels_.resize(static_cast<std::size_t>(width) * height * 4);
  clear(background);
}

void Framebuffer::clear(Color c) {
  // The whole image is one contiguous pixel run.
  kernels::active().fill_row(pixels_.data(), pixels_.size() / 4, c);
}

void Framebuffer::set_pixel(int x, int y, Color c) {
  if (x < 0 || y < 0 || x >= width_ || y >= height_ || c.a == 0) return;
  if (c.a == 255) {
    set_pixel_unchecked(x, y, c);
    return;
  }
  const Color blended = color::blend_over(pixel(x, y), c);
  set_pixel_unchecked(x, y, blended);
}

void Framebuffer::set_pixel_unchecked(int x, int y, Color c) {
  const std::size_t i =
      (static_cast<std::size_t>(y) * width_ + static_cast<std::size_t>(x)) * 4;
  pixels_[i] = c.r;
  pixels_[i + 1] = c.g;
  pixels_[i + 2] = c.b;
  pixels_[i + 3] = 255;
}

Color Framebuffer::pixel(int x, int y) const {
  JED_ASSERT(x >= 0 && y >= 0 && x < width_ && y < height_);
  const std::size_t i =
      (static_cast<std::size_t>(y) * width_ + static_cast<std::size_t>(x)) * 4;
  return Color{pixels_[i], pixels_[i + 1], pixels_[i + 2], pixels_[i + 3]};
}

void Framebuffer::fill_rect(int x, int y, int w, int h, Color c) {
  if (c.a == 0 || w <= 0 || h <= 0) return;
  // Clip in 64-bit: x + w and y + h overflow int for near-INT_MAX extents.
  const long long x0 = std::max<long long>(x, 0);
  const long long y0 = std::max<long long>(y, 0);
  const long long x1 = std::min<long long>(static_cast<long long>(x) + w,
                                           width_);
  const long long y1 = std::min<long long>(static_cast<long long>(y) + h,
                                           height_);
  if (x0 >= x1 || y0 >= y1) return;
  const auto& k = kernels::active();
  const std::size_t npx = static_cast<std::size_t>(x1 - x0);
  if (c.a == 255) {
    for (long long yy = y0; yy < y1; ++yy) {
      k.fill_row(row(static_cast<int>(yy)) + x0 * 4, npx, c);
    }
  } else {
    for (long long yy = y0; yy < y1; ++yy) {
      k.blend_row(row(static_cast<int>(yy)) + x0 * 4, npx, c);
    }
  }
}

namespace {
// x + w - 1 without overflowing; out-of-range results clamp to int, which
// the line clippers then reject or trim against the canvas anyway.
int far_edge(int x, int extent) {
  const long long e = static_cast<long long>(x) + extent - 1;
  return static_cast<int>(std::clamp<long long>(e, INT32_MIN, INT32_MAX));
}
}  // namespace

void Framebuffer::draw_rect(int x, int y, int w, int h, Color c) {
  if (w <= 0 || h <= 0) return;
  const int xe = far_edge(x, w);
  const int ye = far_edge(y, h);
  draw_hline(x, xe, y, c);
  draw_hline(x, xe, ye, c);
  draw_vline(x, y, ye, c);
  draw_vline(xe, y, ye, c);
}

void Framebuffer::draw_hline(int x0, int x1, int y, Color c) {
  if (x1 < x0) std::swap(x0, x1);
  // Clip once up front instead of bounds-checking every pixel.
  if (c.a == 0 || y < 0 || y >= height_ || x1 < 0 || x0 >= width_) return;
  x0 = std::max(x0, 0);
  x1 = std::min(x1, width_ - 1);
  std::uint8_t* p = row(y) + static_cast<std::size_t>(x0) * 4;
  const std::size_t npx = static_cast<std::size_t>(x1 - x0) + 1;
  const auto& k = kernels::active();
  if (c.a == 255) {
    k.fill_row(p, npx, c);
  } else {
    k.blend_row(p, npx, c);
  }
}

void Framebuffer::draw_vline(int x, int y0, int y1, Color c) {
  if (y1 < y0) std::swap(y0, y1);
  if (c.a == 0 || x < 0 || x >= width_ || y1 < 0 || y0 >= height_) return;
  y0 = std::max(y0, 0);
  y1 = std::min(y1, height_ - 1);
  if (c.a == 255) {
    for (int y = y0; y <= y1; ++y) set_pixel_unchecked(x, y, c);
  } else {
    for (int y = y0; y <= y1; ++y) {
      set_pixel_unchecked(x, y, color::blend_over(pixel(x, y), c));
    }
  }
}

void Framebuffer::draw_line(int x0, int y0, int x1, int y1, Color c) {
  // Fully off-canvas lines used to walk every coordinate through
  // bounds-checked set_pixel; reject them here, and route axis-aligned
  // lines to the clipped span primitives (identical pixels and blends).
  if (c.a == 0 || std::max(x0, x1) < 0 || std::min(x0, x1) >= width_ ||
      std::max(y0, y1) < 0 || std::min(y0, y1) >= height_) {
    return;
  }
  if (y0 == y1) {
    draw_hline(x0, x1, y0, c);
    return;
  }
  if (x0 == x1) {
    draw_vline(x0, y0, y1, c);
    return;
  }
  const int dx = std::abs(x1 - x0);
  const int dy = -std::abs(y1 - y0);
  const int sx = x0 < x1 ? 1 : -1;
  const int sy = y0 < y1 ? 1 : -1;
  int err = dx + dy;
  while (true) {
    set_pixel(x0, y0, c);
    if (x0 == x1 && y0 == y1) break;
    const int e2 = 2 * err;
    if (e2 >= dy) {
      err += dy;
      x0 += sx;
    }
    if (e2 <= dx) {
      err += dx;
      y0 += sy;
    }
  }
}

void Framebuffer::blit_rows(const Framebuffer& src, int y) {
  JED_ASSERT(src.width_ == width_ && y >= 0 && y + src.height_ <= height_);
  std::memcpy(row(y), src.pixels_.data(), src.pixels_.size());
}

void Framebuffer::blit_cols(const Framebuffer& src, int dst_x, int src_x,
                            int w) {
  JED_ASSERT(src.height_ == height_);
  // Clip the column span to both images.
  if (src_x < 0) {
    dst_x -= src_x;
    w += src_x;
    src_x = 0;
  }
  if (dst_x < 0) {
    src_x -= dst_x;
    w += dst_x;
    dst_x = 0;
  }
  w = std::min({w, src.width_ - src_x, width_ - dst_x});
  if (w <= 0) return;
  for (int y = 0; y < height_; ++y) {
    const auto* from =
        src.pixels_.data() +
        (static_cast<std::size_t>(y) * src.width_ + src_x) * 4;
    auto* to = pixels_.data() +
               (static_cast<std::size_t>(y) * width_ + dst_x) * 4;
    std::memcpy(to, from, static_cast<std::size_t>(w) * 4);
  }
}

void Framebuffer::hatch_rect(int x, int y, int w, int h, int spacing,
                             Color c) {
  JED_ASSERT(spacing > 0);
  // 45-degree lines x + y == k, restricted to the rectangle.
  const int x1 = x + w - 1;
  const int y1 = y + h - 1;
  for (int k = x + y; k <= x1 + y1; k += spacing) {
    for (int yy = std::max(y, k - x1); yy <= std::min(y1, k - x); ++yy) {
      set_pixel(k - yy, yy, c);
    }
  }
}

}  // namespace jedule::render
