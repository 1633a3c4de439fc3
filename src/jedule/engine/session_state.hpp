#pragma once

// engine::SessionState — one interactive view over a store entry.
//
// This is the stateful half of what used to be interactive::Session: the
// current window/zoom/selection, the active colormap, the lazily
// recomputed layout, and the per-view TileCache with its frame log. The
// schedule itself is NOT owned here — SessionState holds a
// shared_ptr<const ScheduleEntry>, so many sessions (and the serve
// frontends) can view one ingested schedule without copies, and the view
// survives the store evicting the entry. interactive::Session is now a
// thin script/REPL frontend over this class.
//
// View operations clamp degenerate input (zero/denormal zoom spans, pans
// past the schedule bounds) instead of producing NaN geometry; see the
// per-method comments.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "jedule/color/colormap.hpp"
#include "jedule/engine/store.hpp"
#include "jedule/render/frame_profile.hpp"
#include "jedule/render/framebuffer.hpp"
#include "jedule/render/gantt.hpp"
#include "jedule/render/tile_cache.hpp"

namespace jedule::engine {

class SessionState {
 public:
  SessionState(EntryPtr entry, color::ColorMap colormap,
               render::GanttStyle style);

  const EntryPtr& entry() const { return entry_; }
  /// The entry's resident form (ScheduleEntry::tasks); what layouts and
  /// frames read.
  model::TaskView tasks() const { return entry_->tasks(); }
  const model::TaskIndex& index() const { return entry_->index; }
  const render::GanttStyle& style() const { return style_; }
  const color::ColorMap& colormap() const { return colormap_; }

  /// Swaps in new content (reread) while keeping the current view.
  void reset_entry(EntryPtr entry);

  /// Current layout (recomputed lazily after every view change). It
  /// borrows the entry's schedule; reset_entry() drops it.
  const render::GanttLayout& layout();

  model::TimeRange current_window() const;

  // -- view operations ------------------------------------------------

  /// Wheel zoom: shrink (factor > 1) or grow (factor < 1) the time window
  /// by `factor`, keeping the time at `center_frac` (0..1 across the panel
  /// width) fixed. Throws ArgumentError on factor <= 0 or NaN; the
  /// resulting span is clamped to sane bounds otherwise.
  void zoom(double factor, double center_frac = 0.5);

  /// Rectangle-selection zoom: window = the time span between two pixel
  /// x-coordinates. Pixels outside panels clamp to the panel edges;
  /// reversed or empty selections clamp to a minimal span (never throw).
  void zoom_to_pixels(double x0, double x1);

  /// Explicit window in schedule time units. Reversed bounds swap, empty
  /// windows expand to a minimal span; non-finite bounds throw.
  void zoom_to_time(double t0, double t1);

  /// Drag: shift the current window by `dt` time units (positive = later).
  /// Clamped so the window always touches the schedule's time range.
  void pan(double dt);

  /// Drop zoom and cluster selection.
  void reset_view();

  void select_clusters(std::vector<int> cluster_ids);
  void select_all_clusters();
  void set_type_filter(std::vector<std::string> types);

  void set_view_mode(model::ViewMode mode);
  void set_colormap(color::ColorMap colormap);
  void set_grayscale(bool on);
  void set_lod(render::LodMode mode);
  void set_edges(render::EdgeMode mode);
  /// Arrow budget per pixel column before the view switches to heat
  /// lanes; throws ArgumentError unless strictly positive.
  void set_edge_density(int per_column);

  // -- frames -----------------------------------------------------------

  /// Renders the current view through the tile cache and returns the
  /// frame; a pan after a rendered frame re-rasterizes only the exposed
  /// strip. Per-frame timings land in frame_log().
  const render::Framebuffer& frame();

  const render::profile::FrameLog& frame_log() const { return frame_log_; }

 private:
  void invalidate() { layout_.reset(); }
  /// Clamps (length, then position) and installs a time window.
  void set_window(double t0, double t1);

  EntryPtr entry_;
  color::ColorMap colormap_;
  color::ColorMap original_colormap_;
  bool grayscale_ = false;
  render::GanttStyle style_;
  std::optional<render::GanttLayout> layout_;

  render::TileCache cache_;
  std::optional<render::Framebuffer> frame_;
  render::profile::FrameLog frame_log_;
  std::uint64_t colormap_epoch_ = 0;
};

}  // namespace jedule::engine
