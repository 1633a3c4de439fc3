#include "jedule/engine/session_state.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "jedule/util/error.hpp"

namespace jedule::engine {

using model::TimeRange;

SessionState::SessionState(EntryPtr entry, color::ColorMap colormap,
                           render::GanttStyle style)
    : entry_(std::move(entry)),
      colormap_(colormap),
      original_colormap_(std::move(colormap)),
      style_(std::move(style)),
      cache_(render::TileCache::Options{.threads = 0}) {
  JED_ASSERT(entry_ != nullptr);
}

void SessionState::reset_entry(EntryPtr entry) {
  JED_ASSERT(entry != nullptr);
  // The cached layout borrows the old entry's schedule: drop it first.
  invalidate();
  entry_ = std::move(entry);
  // The tile cache keys on the content hash, so identical content keeps
  // its tiles; changed content re-rasterizes. Reset the grid anyway: the
  // old anchor was chosen for the old content's bounds.
  cache_.invalidate();
}

const render::GanttLayout& SessionState::layout() {
  if (!layout_) {
    render::LayoutHints hints;
    hints.index = &entry_->index;
    hints.edge_index = &entry_->edges;
    hints.assume_validated = true;  // entries validate at ingest
    hints.interactive = true;
    layout_ = render::layout_gantt(tasks(), colormap_, style_,
                                   /*threads=*/1, hints);
  }
  return *layout_;
}

TimeRange SessionState::current_window() const {
  if (style_.time_window) return *style_.time_window;
  return entry_->full_range;
}

void SessionState::set_window(double t0, double t1) {
  if (!std::isfinite(t0) || !std::isfinite(t1)) {
    throw ArgumentError("window bounds must be finite");
  }
  if (t1 < t0) std::swap(t0, t1);

  const TimeRange full_range = entry_->full_range;
  // Length clamp: never below ~1e-12 of the schedule span (zero or
  // denormal zoom spans would collapse the pixel mapping to NaN/inf) and
  // never above 16x of it (runaway zoom-out).
  const double span = full_range.length() > 0 ? full_range.length() : 1.0;
  const double min_len = span * 1e-12;
  const double max_len = span * 16.0;
  double len = t1 - t0;
  if (!(len >= min_len)) {
    const double c = 0.5 * (t0 + t1);
    t0 = c - min_len / 2;
    t1 = c + min_len / 2;
    if (!(t1 > t0)) {  // c so large that c +/- min_len/2 rounds back to c
      t1 = std::nextafter(t0, std::numeric_limits<double>::max());
    }
  } else if (len > max_len) {
    const double c = 0.5 * (t0 + t1);
    t0 = c - max_len / 2;
    t1 = c + max_len / 2;
  }

  // Position clamp: the window must touch [begin, end] of the schedule
  // (panning past the ends slides along the boundary instead of showing
  // arbitrary empty space).
  if (t0 > full_range.end) {
    const double d = t0 - full_range.end;
    t0 -= d;
    t1 -= d;
  } else if (t1 < full_range.begin) {
    const double d = full_range.begin - t1;
    t0 += d;
    t1 += d;
  }

  style_.time_window = TimeRange{t0, t1};
  invalidate();
}

void SessionState::zoom(double factor, double center_frac) {
  if (!(factor > 0)) throw ArgumentError("zoom factor must be positive");
  if (!std::isfinite(center_frac)) center_frac = 0.5;
  center_frac = std::clamp(center_frac, 0.0, 1.0);
  const TimeRange window = current_window();
  const double center = window.begin + window.length() * center_frac;
  const double full = entry_->full_range.length();
  const double span = full > 0 ? full : 1.0;
  const double new_len =
      std::clamp(window.length() / factor, span * 1e-12, span * 16.0);
  set_window(center - new_len * center_frac,
             center + new_len * (1.0 - center_frac));
}

void SessionState::zoom_to_pixels(double x0, double x1) {
  if (!std::isfinite(x0) || !std::isfinite(x1)) {
    throw ArgumentError("zoom rectangle coordinates must be finite");
  }
  if (x1 < x0) std::swap(x0, x1);
  const auto& lay = layout();
  if (lay.panels.empty()) return;
  // Rectangle zoom uses the time axis of the first panel; in aligned mode
  // all panels agree, in scaled mode this matches zooming "in" that panel.
  const auto& panel = lay.panels.front();
  auto time_of_x = [&](double x) {
    const double frac = std::clamp((x - panel.x) / panel.w, 0.0, 1.0);
    return panel.time_range.begin + frac * panel.time_range.length();
  };
  // A degenerate selection (both pixels in one column, or off the panel on
  // the same side) clamps to a minimal span in set_window.
  set_window(time_of_x(x0), time_of_x(x1));
}

void SessionState::zoom_to_time(double t0, double t1) { set_window(t0, t1); }

void SessionState::pan(double dt) {
  if (!std::isfinite(dt)) throw ArgumentError("pan offset must be finite");
  const TimeRange window = current_window();
  // An astronomically large dt can overflow begin+dt to infinity; clamp
  // the target into the finite range and let set_window slide it back to
  // the schedule bounds.
  constexpr double kLim = 1e300;
  set_window(std::clamp(window.begin + dt, -kLim, kLim),
             std::clamp(window.end + dt, -kLim, kLim));
}

void SessionState::reset_view() {
  style_.time_window.reset();
  style_.cluster_filter.clear();
  invalidate();
}

void SessionState::select_clusters(std::vector<int> cluster_ids) {
  for (int id : cluster_ids) {
    if (!tasks().has_cluster(id)) {
      throw ArgumentError("unknown cluster id " + std::to_string(id));
    }
  }
  style_.cluster_filter = std::move(cluster_ids);
  invalidate();
}

void SessionState::select_all_clusters() {
  style_.cluster_filter.clear();
  invalidate();
}

void SessionState::set_type_filter(std::vector<std::string> types) {
  style_.type_filter = std::move(types);
  invalidate();
}

void SessionState::set_view_mode(model::ViewMode mode) {
  style_.view_mode = mode;
  invalidate();
}

void SessionState::set_colormap(color::ColorMap colormap) {
  original_colormap_ = std::move(colormap);
  colormap_ = grayscale_ ? original_colormap_.grayscale() : original_colormap_;
  ++colormap_epoch_;
  invalidate();
}

void SessionState::set_grayscale(bool on) {
  grayscale_ = on;
  colormap_ = on ? original_colormap_.grayscale() : original_colormap_;
  ++colormap_epoch_;
  invalidate();
}

void SessionState::set_lod(render::LodMode mode) {
  style_.lod = mode;
  invalidate();
}

void SessionState::set_edges(render::EdgeMode mode) {
  style_.edges = mode;
  invalidate();
}

void SessionState::set_edge_density(int per_column) {
  if (per_column <= 0) {
    throw ArgumentError("edge-density must be a positive integer");
  }
  style_.edge_density = per_column;
  invalidate();
}

const render::Framebuffer& SessionState::frame() {
  render::TileCache::Request req;
  req.tasks = tasks();
  req.colormap = &colormap_;
  req.style = style_;
  req.style.time_window = current_window();
  req.index = &entry_->index;
  req.edge_index = &entry_->edges;
  req.colormap_epoch = colormap_epoch_;
  frame_ = cache_.render_frame(req);
  frame_log_.record(cache_.last_frame());
  return *frame_;
}

}  // namespace jedule::engine
