#pragma once

// render::TileCache — pan-reusing raster cache for interactive frames.
//
// The panel area of the canvas is split into fixed-width, full-height
// vertical tiles on an *anchored* pixel grid: time t maps to absolute
// pixel column floor((t - anchor) / time_per_px + 0.5), so a pan by a
// whole number of pixels shifts boxes by exactly that integer and tiles
// rendered for the old window stay byte-valid for the new one. A frame
// blits the still-valid tiles and rasterizes only the newly exposed
// strip (misses render in parallel); zoom (window length change),
// reread (content hash change) and style/colormap changes invalidate.
//
// Tiles hold the box layer only; the per-frame overlay repaints header,
// task labels and panel chrome on top, so text never straddles a tile
// seam. Hatched composites bypass the cache (the hatch phase is anchored
// to the box corner, which tile clipping would shift).
//
// Hit/miss/evict counters flow into render::profile (frame_profile.hpp).

#include <cstdint>
#include <list>
#include <map>
#include <optional>

#include "jedule/color/colormap.hpp"
#include "jedule/model/task_index.hpp"
#include "jedule/model/task_view.hpp"
#include "jedule/render/frame_profile.hpp"
#include "jedule/render/framebuffer.hpp"
#include "jedule/render/gantt.hpp"

namespace jedule::render {

class TileCache {
 public:
  struct Options {
    int tile_width = 256;
    std::size_t max_tiles = 48;  // raised per frame if a frame needs more
    int threads = 1;  // parallel miss rasterization (<= 0: resolve_threads)
  };

  struct Request {
    /// Must already be validated: layouts run with assume_validated.
    model::TaskView tasks;
    const color::ColorMap* colormap = nullptr;
    /// style.time_window is the view window (falls back to the schedule
    /// bounds when unset). LodMode::kDefault resolves to kAuto here —
    /// the tile cache is the interactive path.
    GanttStyle style;
    /// Required: culls each layout to the window and supplies the
    /// content hash that keys the tiles.
    const model::TaskIndex* index = nullptr;
    /// Optional dependency-edge index. Edges paint in the per-frame
    /// overlay only — tiles never contain them, so edge style changes
    /// never invalidate the cache. Without the index an active EdgeMode
    /// falls back to brute-force dependency scans per frame.
    const model::EdgeIndex* edge_index = nullptr;
    /// Bumped by the caller whenever the colormap object changes (the
    /// cache cannot cheaply hash a colormap).
    std::uint64_t colormap_epoch = 0;
  };

  TileCache();
  explicit TileCache(Options opt);

  /// Renders one frame, reusing every tile still valid for the request.
  Framebuffer render_frame(const Request& req);

  /// Drops all tiles but keeps the pixel grid: the next frame re-renders
  /// cold on the *same* grid (the byte-identity reference for tests).
  void clear();

  /// Drops tiles and grid (the next frame re-anchors at its window).
  void invalidate();

  std::size_t tile_count() const { return tiles_.size(); }
  const profile::FrameStats& last_frame() const { return last_; }
  const profile::CacheStats& stats() const { return stats_; }

 private:
  struct Grid {
    double anchor = 0;         // time at absolute pixel column 0
    double time_per_px = 1;
    double cols_per_time = 1;  // the exact reciprocal used for snapping
    std::uint64_t len_bits = 0;  // bit pattern of the window length
  };
  struct Tile {
    Framebuffer fb;
    std::list<long long>::iterator lru;
  };

  Framebuffer render_direct(const Request& req, const model::TimeRange& win,
                            const LayoutHints& base_hints);
  Framebuffer render_tile(const Request& req, const Grid& grid,
                          long long tile_col, const LayoutHints& base_hints,
                          int panel_x,
                          const std::vector<std::uint8_t>& panel_lod) const;
  void drop_tiles();

  Options opt_;
  std::optional<Grid> grid_;
  std::uint64_t content_hash_ = 0;
  std::uint64_t style_hash_ = 0;
  std::map<long long, Tile> tiles_;   // keyed by tile column index
  std::list<long long> lru_;          // front = most recently used
  profile::FrameStats last_;
  profile::CacheStats stats_;
};

}  // namespace jedule::render
