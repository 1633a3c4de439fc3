#include "jedule/render/tile_cache.hpp"

#include <chrono>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "jedule/render/raster_canvas.hpp"
#include "jedule/util/error.hpp"
#include "jedule/util/parallel.hpp"

namespace jedule::render {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Extra pixel columns of time window on each side of a tile, so every box
/// whose rounded edges or 1-px outline reach into the tile is laid out.
constexpr long long kTileSlack = 4;

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void hash_bytes(std::uint64_t* h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= kFnvPrime;
  }
}

void hash_u64(std::uint64_t* h, std::uint64_t v) { hash_bytes(h, &v, 8); }

void hash_string(std::uint64_t* h, const std::string& s) {
  hash_u64(h, s.size());
  hash_bytes(h, s.data(), s.size());
}

/// Everything that changes tile pixels except the view window (the window
/// is what the grid + tile keys encode) and the schedule content (hashed
/// separately). panel_lod is part of the key: a pan that flips a panel
/// between exact boxes and density bins must re-rasterize. The edge
/// style (edges/edge_density) is deliberately absent — tiles hold the
/// box layer only, so toggling edges repaints just the frame overlay.
std::uint64_t hash_style(const GanttStyle& style, std::uint64_t colormap_epoch,
                         const std::vector<std::uint8_t>& panel_lod) {
  std::uint64_t h = kFnvOffset;
  hash_u64(&h, static_cast<std::uint64_t>(style.width));
  hash_u64(&h, static_cast<std::uint64_t>(style.height));
  hash_u64(&h, static_cast<std::uint64_t>(style.view_mode));
  hash_u64(&h, (style.show_composites ? 1u : 0u) |
                   (style.show_labels ? 2u : 0u) |
                   (style.show_grid ? 4u : 0u) | (style.show_meta ? 8u : 0u) |
                   (style.hatch_composites ? 16u : 0u));
  hash_u64(&h, style.cluster_filter.size());
  for (int id : style.cluster_filter) {
    hash_u64(&h, static_cast<std::uint64_t>(id));
  }
  hash_u64(&h, style.type_filter.size());
  for (const auto& t : style.type_filter) hash_string(&h, t);
  hash_string(&h, style.highlight_key);
  hash_string(&h, style.highlight_value);
  hash_u64(&h, static_cast<std::uint64_t>(style.highlight_bg.r) |
                   (static_cast<std::uint64_t>(style.highlight_bg.g) << 8) |
                   (static_cast<std::uint64_t>(style.highlight_bg.b) << 16) |
                   (static_cast<std::uint64_t>(style.highlight_bg.a) << 24));
  hash_u64(&h, static_cast<std::uint64_t>(style.time_ticks));
  hash_u64(&h, static_cast<std::uint64_t>(style.lod));
  hash_u64(&h, static_cast<std::uint64_t>(style.lod_density));
  hash_u64(&h, colormap_epoch);
  hash_bytes(&h, panel_lod.data(), panel_lod.size());
  return h;
}

std::uint64_t double_bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, 8);
  return b;
}

long long floor_div(long long a, long long b) {
  return a >= 0 ? a / b : -((-a + b - 1) / b);
}

}  // namespace

TileCache::TileCache() : TileCache(Options{}) {}

TileCache::TileCache(Options opt) : opt_(opt) {
  JED_ASSERT(opt_.tile_width > 0);
  opt_.threads = util::resolve_threads(opt_.threads);
}

void TileCache::clear() {
  tiles_.clear();
  lru_.clear();
}

void TileCache::invalidate() {
  clear();
  grid_.reset();
  ++stats_.invalidations;
}

void TileCache::drop_tiles() {
  if (!tiles_.empty()) {
    tiles_.clear();
    lru_.clear();
  }
}

Framebuffer TileCache::render_frame(const Request& req) {
  JED_ASSERT(req.colormap != nullptr && req.index != nullptr);
  const auto t_start = Clock::now();
  last_ = profile::FrameStats{};

  LayoutHints base_hints;
  base_hints.index = req.index;
  base_hints.edge_index = req.edge_index;
  base_hints.assume_validated = true;
  base_hints.interactive = true;

  // Resolve the view window: the style's window, else the whole schedule.
  // layout_gantt rejects empty windows, so degenerate ones get a span.
  model::TimeRange win{0, 1};
  if (req.style.time_window) {
    win = *req.style.time_window;
  } else if (req.index->time_range()) {
    win = *req.index->time_range();
  }
  if (!(win.length() > 0)) win = {win.begin, win.begin + 1};

  // Hatching is anchored to box corners, which tile clipping would shift;
  // those frames render directly and leave the cache untouched.
  if (req.style.hatch_composites) {
    Framebuffer fb = render_direct(req, win, base_hints);
    last_.total_ms = ms_since(t_start);
    return fb;
  }

  const std::uint64_t content = req.index->content_hash();
  if (content != content_hash_) {
    if (content_hash_ != 0) {
      drop_tiles();
      ++last_.invalidations;
    }
    content_hash_ = content;
  }

  // Pixel grid: reuse when the window length is bit-identical and the new
  // window begin lands on (within 1e-6 px of) an integer column of the old
  // grid — i.e. the view was panned, not zoomed.
  const PanelExtent extent = gantt_panel_extent(req.style);
  const long long px_x = std::llround(extent.x);
  const long long px_w = std::max<long long>(1, std::llround(extent.w));
  const std::uint64_t len_bits = double_bits(win.length());
  long long j = 0;
  bool grid_ok = false;
  if (grid_ && grid_->len_bits == len_bits) {
    const double d = (win.begin - grid_->anchor) * grid_->cols_per_time;
    j = std::llround(d);
    grid_ok = std::abs(d - static_cast<double>(j)) <= 1e-6;
  }
  if (!grid_ok) {
    if (grid_) {
      drop_tiles();
      ++last_.invalidations;
    }
    Grid g;
    g.anchor = win.begin;
    g.cols_per_time = static_cast<double>(px_w) / win.length();
    g.time_per_px = win.length() / static_cast<double>(px_w);
    g.len_bits = len_bits;
    grid_ = g;
    j = 0;
  }
  const Grid grid = *grid_;

  // The frame's own layout: culled to the window, snapped to the grid,
  // density bins skipped (tiles paint those). It decides panel_lod for
  // the whole frame and supplies header, labels and chrome geometry.
  const auto t_layout = Clock::now();
  GanttStyle frame_style = req.style;
  frame_style.time_window = win;
  LayoutHints frame_hints = base_hints;
  frame_hints.skip_lod_bins = true;
  frame_hints.snap = SnapGrid{grid.anchor, grid.cols_per_time, j};
  GanttLayout layout = layout_gantt(req.tasks, *req.colormap, frame_style,
                                    /*threads=*/opt_.threads, frame_hints);
  last_.layout_ms = ms_since(t_layout);
  last_.boxes = layout.boxes.size();
  for (auto v : layout.panel_lod) last_.lod = last_.lod || v != 0;
  last_.edges_considered = layout.edge_stats.considered;
  last_.edge_arrows = layout.edge_stats.arrows;
  last_.edge_heat_panels = layout.edge_stats.heat_panels;

  const std::uint64_t style_h =
      hash_style(req.style, req.colormap_epoch, layout.panel_lod);
  if (style_h != style_hash_) {
    if (style_hash_ != 0 && !tiles_.empty()) {
      drop_tiles();
      ++last_.invalidations;
    }
    style_hash_ = style_h;
  }

  // Tiles covering the visible absolute pixel columns [j, j + px_w).
  const long long tw = opt_.tile_width;
  const long long k0 = floor_div(j, tw);
  const long long k1 = floor_div(j + px_w - 1, tw);
  last_.tiles_total = static_cast<std::size_t>(k1 - k0 + 1);

  const auto t_tiles = Clock::now();
  std::vector<long long> missing;
  for (long long k = k0; k <= k1; ++k) {
    auto it = tiles_.find(k);
    if (it != tiles_.end()) {
      ++last_.tiles_hit;
      lru_.erase(it->second.lru);
      lru_.push_front(k);
      it->second.lru = lru_.begin();
    } else {
      missing.push_back(k);
    }
  }

  // Rasterize misses in parallel, then insert in key order (deterministic
  // LRU no matter which worker finished first).
  std::vector<Framebuffer> fresh;
  fresh.reserve(missing.size());
  for (std::size_t i = 0; i < missing.size(); ++i) {
    fresh.emplace_back(1, 1);
  }
  util::parallel_for(missing.size(), opt_.threads, [&](std::size_t i) {
    fresh[i] = render_tile(req, grid, missing[i], base_hints,
                           static_cast<int>(px_x), layout.panel_lod);
  });
  for (std::size_t i = 0; i < missing.size(); ++i) {
    lru_.push_front(missing[i]);
    tiles_.emplace(missing[i], Tile{std::move(fresh[i]), lru_.begin()});
    ++last_.tiles_missed;
  }

  // Evict beyond capacity, never below what this frame needs.
  const std::size_t cap = std::max(opt_.max_tiles, last_.tiles_total);
  while (tiles_.size() > cap) {
    tiles_.erase(lru_.back());
    lru_.pop_back();
    ++last_.tiles_evicted;
  }

  // Assemble: white canvas, tile strips clipped to the panel span, then
  // the per-frame overlay (header, labels, chrome) on top.
  Framebuffer fb(req.style.width, req.style.height, color::kWhite);
  for (long long k = k0; k <= k1; ++k) {
    const long long left = px_x + k * tw - j;  // device x of tile column 0
    const long long d0 = std::max(px_x, left);
    const long long d1 = std::min(px_x + px_w, left + tw);
    if (d1 <= d0) continue;
    fb.blit_cols(tiles_.at(k).fb, static_cast<int>(d0),
                 static_cast<int>(d0 - left), static_cast<int>(d1 - d0));
  }
  last_.tiles_ms = ms_since(t_tiles);

  const auto t_overlay = Clock::now();
  RasterCanvas canvas(fb);
  paint_gantt_header(layout, canvas);
  // Edges are a per-frame overlay between the blitted box layer and the
  // labels/chrome — tile bytes never change with the edge style.
  paint_gantt_edges(layout, canvas);
  if (req.style.show_labels) paint_gantt_labels(layout, canvas, frame_style);
  paint_gantt_chrome(layout, canvas, frame_style);
  last_.overlay_ms = ms_since(t_overlay);

  last_.total_ms = ms_since(t_start);
  stats_.hits += last_.tiles_hit;
  stats_.misses += last_.tiles_missed;
  stats_.evictions += last_.tiles_evicted;
  stats_.invalidations += last_.invalidations;
  return fb;
}

Framebuffer TileCache::render_tile(const Request& req, const Grid& grid,
                                   long long tile_col,
                                   const LayoutHints& base_hints, int panel_x,
                                   const std::vector<std::uint8_t>& panel_lod)
    const {
  const long long tw = opt_.tile_width;
  const long long b0 = tile_col * tw - kTileSlack;
  const long long b1 = (tile_col + 1) * tw + kTileSlack;
  GanttStyle style = req.style;
  // Tiles hold the box layer only; edges paint in the frame overlay.
  style.edges = EdgeMode::kOff;
  style.time_window =
      model::TimeRange{grid.anchor + static_cast<double>(b0) * grid.time_per_px,
                       grid.anchor + static_cast<double>(b1) * grid.time_per_px};

  LayoutHints hints = base_hints;
  hints.skip_lod_bins = false;
  hints.panel_lod_override = panel_lod;
  // origin_col places absolute column tile_col * tile_width at device x 0
  // of the tile image (panel.x cancels out of the snap arithmetic).
  hints.snap = SnapGrid{grid.anchor, grid.cols_per_time,
                        tile_col * tw + static_cast<long long>(panel_x)};

  GanttLayout layout = layout_gantt(req.tasks, *req.colormap, style,
                                    /*threads=*/1, hints);
  Framebuffer fb(static_cast<int>(tw), req.style.height, color::kWhite);
  RasterCanvas canvas(fb);
  paint_gantt_boxes(layout, canvas, style, /*with_labels=*/false);
  return fb;
}

Framebuffer TileCache::render_direct(const Request& req,
                                     const model::TimeRange& win,
                                     const LayoutHints& base_hints) {
  GanttStyle style = req.style;
  style.time_window = win;
  const auto t_layout = Clock::now();
  GanttLayout layout = layout_gantt(req.tasks, *req.colormap, style,
                                    /*threads=*/opt_.threads, base_hints);
  last_.layout_ms = ms_since(t_layout);
  last_.boxes = layout.boxes.size();
  for (auto v : layout.panel_lod) last_.lod = last_.lod || v != 0;
  last_.edges_considered = layout.edge_stats.considered;
  last_.edge_arrows = layout.edge_stats.arrows;
  last_.edge_heat_panels = layout.edge_stats.heat_panels;
  last_.cached = false;

  Framebuffer fb(style.width, style.height, color::kWhite);
  RasterCanvas canvas(fb);
  paint_gantt(layout, canvas, style);
  return fb;
}

}  // namespace jedule::render
