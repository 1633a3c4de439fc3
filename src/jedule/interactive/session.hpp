#pragma once

// Headless implementation of Jedule's interactive mode (paper Sec. II.D.1).
//
// The Swing GUI of the original maps input events to a small set of view
// operations: select clusters, zoom (wheel / rectangle selection), pan
// (drag), inspect a task (click), re-read the schedule file, and export a
// snapshot. Since the engine refactor (DESIGN.md §4f) the view state
// itself — window, selection, colormap, layout, tile cache — lives in
// engine::SessionState as a view over a shared engine::ScheduleEntry;
// Session is the script/REPL frontend: it binds the state to a file (for
// reread), resolves pixel queries to task descriptions, and interprets the
// `view` subcommand's command language. The test suite drives it directly
// (see DESIGN.md §2 for why the event loop itself is substituted).
//
// Interactive frames are O(visible): the entry's model::TaskIndex feeds
// viewport culling and point-query inspect, and frames render through a
// render::TileCache, so a pan re-rasterizes only the newly exposed strip.

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "jedule/color/colormap.hpp"
#include "jedule/engine/session_state.hpp"
#include "jedule/io/ingest.hpp"
#include "jedule/model/schedule.hpp"
#include "jedule/model/task_index.hpp"
#include "jedule/render/frame_profile.hpp"
#include "jedule/render/framebuffer.hpp"
#include "jedule/render/gantt.hpp"

namespace jedule::interactive {

class Session {
 public:
  /// Session over an in-memory schedule; reread() is unavailable.
  Session(model::Schedule schedule, color::ColorMap colormap,
          render::GanttStyle style = {});

  /// Session bound to the schedule file `path`, over the entry the caller
  /// loaded from it with `format` ("" sniffs) and `ingest`
  /// (engine::load_entry). reread() and follow() reload the file with the
  /// same parser and thread count (the paper's fast simulate-and-look
  /// development loop).
  Session(engine::EntryPtr entry, std::string path, std::string format,
          io::IngestOptions ingest, color::ColorMap colormap,
          render::GanttStyle style = {});

  /// Session viewing an already-ingested store entry (the serve/engine
  /// path: many sessions over one schedule, no copies).
  Session(engine::EntryPtr entry, color::ColorMap colormap,
          render::GanttStyle style = {});

  /// The AoS schedule (materialized from a columnar entry on first use).
  const model::Schedule& schedule() const {
    return state_.entry()->schedule();
  }
  const render::GanttStyle& style() const { return state_.style(); }

  /// Current layout (recomputed lazily after every view change).
  const render::GanttLayout& layout() { return state_.layout(); }

  /// The shared spatial index (owned by the underlying ScheduleEntry).
  const model::TaskIndex& index() { return state_.index(); }

  /// The underlying engine view state.
  engine::SessionState& state() { return state_; }

  // -- view operations (forwarded to engine::SessionState) -------------

  /// Wheel zoom: shrink (factor > 1) or grow (factor < 1) the time window
  /// by `factor`, keeping the time at `center_frac` (0..1 across the panel
  /// width) fixed. Throws ArgumentError on factor <= 0 or NaN; the
  /// resulting span is clamped to sane bounds otherwise.
  void zoom(double factor, double center_frac = 0.5) {
    state_.zoom(factor, center_frac);
  }

  /// Rectangle-selection zoom: window = the time span between two pixel
  /// x-coordinates. Pixels outside panels clamp to the panel edges;
  /// reversed or empty selections clamp to a minimal span (never throw).
  void zoom_to_pixels(double x0, double x1) { state_.zoom_to_pixels(x0, x1); }

  /// Explicit window in schedule time units. Reversed bounds swap, empty
  /// windows expand to a minimal span; non-finite bounds throw.
  void zoom_to_time(double t0, double t1) { state_.zoom_to_time(t0, t1); }

  /// Drag: shift the current window by `dt` time units (positive = later).
  /// Clamped so the window always touches the schedule's time range.
  void pan(double dt) { state_.pan(dt); }

  /// Drop zoom and cluster selection.
  void reset_view() { state_.reset_view(); }

  void select_clusters(std::vector<int> cluster_ids) {
    state_.select_clusters(std::move(cluster_ids));
  }
  void select_all_clusters() { state_.select_all_clusters(); }

  void set_view_mode(model::ViewMode mode) { state_.set_view_mode(mode); }
  void set_colormap(color::ColorMap colormap) {
    state_.set_colormap(std::move(colormap));
  }
  void set_grayscale(bool on) { state_.set_grayscale(on); }
  void set_lod(render::LodMode mode) { state_.set_lod(mode); }
  void set_edges(render::EdgeMode mode) { state_.set_edges(mode); }
  void set_edge_density(int per_column) {
    state_.set_edge_density(per_column);
  }

  // -- frames -----------------------------------------------------------

  /// Renders the current view through the tile cache and returns the
  /// frame; a pan after a rendered frame re-rasterizes only the exposed
  /// strip. Per-frame timings land in frame_log().
  const render::Framebuffer& frame() { return state_.frame(); }

  const render::profile::FrameLog& frame_log() const {
    return state_.frame_log();
  }

  // -- queries ---------------------------------------------------------

  /// Click-to-inspect: human-readable description (id, type, start/finish,
  /// per-cluster resource list) of the task drawn at pixel (x, y), or
  /// "no task at (x, y)". Resolves through the spatial index (a point
  /// query, not a scan), so it answers in O(log n) even when the panel is
  /// drawn as LOD density bins.
  std::string inspect(double x, double y);

  /// One-line schedule summary (clusters, tasks, makespan).
  std::string info() const;

  // -- file operations --------------------------------------------------

  /// Reloads the bound file, keeping the current view. Throws Error if the
  /// session is not file-bound.
  void reread();

  /// One `--follow` poll: ingest whatever the bound file gained since the
  /// last poll, keeping the current view. CSV traces are tailed
  /// byte-for-byte — only the appended lines are parsed and the entry is
  /// extended in O(delta) (engine::append_entry); other formats re-parse
  /// the file and append only the new tasks. A shrunken or rewritten file
  /// falls back to a full reload. Returns a one-line status; throws Error
  /// if the session is not file-bound.
  std::string follow();

  /// Exports the current view (format from the extension), rendered by
  /// engine::RenderService like `jedule render`.
  void snapshot(const std::string& path);

  /// Executes one script command and returns its textual output. Commands:
  ///   zoom <factor> | zoom <t0> <t1> | window <t0> <t1> | pan <dt> | reset
  ///   clusters all | clusters <id>[,<id>...]
  ///   mode scaled|aligned | grayscale on|off | lod auto|off|force
  ///   edges auto|off|force | edge-density <n>
  ///   inspect <x> <y> | info | frame | stats | reread | export <path> | help
  /// Throws ArgumentError on unknown commands or malformed arguments.
  std::string execute(const std::string& command);

 private:
  std::string describe(const model::Task& t) const;

  engine::SessionState state_;
  std::string path_;    // empty when in-memory
  std::string format_;  // parser for reloads of path_ ("" sniffs)
  io::IngestOptions ingest_;
  // Bytes of the bound CSV trace already ingested; unset until the first
  // follow() resynchronizes (entry and offset must come from one read).
  std::optional<std::size_t> follow_offset_;
};

}  // namespace jedule::interactive
