#pragma once

// Gantt chart layout and painting (paper Sec. II).
//
// layout_gantt() computes device-independent geometry: one panel per
// displayed cluster (stacked vertically, height proportional to the host
// count), one TaskBox per (task configuration x host range) rectangle —
// a multiprocessor task with a scattered allocation yields several boxes,
// exactly as in the Java tool. paint_gantt() draws a layout onto any Canvas
// backend. hit_test() maps a pixel back to the box it shows (interactive
// mode's click-to-inspect).

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "jedule/color/colormap.hpp"
#include "jedule/model/composite.hpp"
#include "jedule/model/edge_index.hpp"
#include "jedule/model/schedule.hpp"
#include "jedule/model/task_index.hpp"
#include "jedule/model/task_view.hpp"
#include "jedule/render/canvas.hpp"

namespace jedule::render {

/// Level-of-detail policy for dense views. kOff always draws exact task
/// rectangles; kAuto collapses a panel into per-pixel-column density bins
/// once its visible (configuration x host range) count exceeds
/// GanttStyle::lod_density entries per pixel column; kForce always bins.
/// kDefault resolves to kOff on the export path (default exports stay
/// byte-identical) and to kAuto on the interactive frame path.
enum class LodMode { kDefault, kOff, kAuto, kForce };

/// Dependency-edge rendering policy (DESIGN.md §4j). kOff draws no edges.
/// kAuto draws one clipped arrow per visible dependency while a panel's
/// visible edge count stays within GanttStyle::edge_density entries per
/// pixel column, and collapses the panel to a per-column heat lane above
/// that budget; kForce always uses the heat lane. The critical path is
/// overlaid in both sub-modes. kDefault resolves to kAuto — a schedule
/// without dependencies draws nothing either way, so existing exports stay
/// byte-identical.
enum class EdgeMode { kDefault, kOff, kAuto, kForce };

struct GanttStyle {
  int width = 1000;
  int height = 600;

  model::ViewMode view_mode = model::ViewMode::kScaled;

  /// Synthesize and draw composite tasks over their members.
  bool show_composites = true;

  /// Draw task-id labels inside rectangles that can fit them.
  bool show_labels = true;

  /// Light horizontal lines at host boundaries (skipped automatically when
  /// rows get thinner than 4 px, e.g. 1024-node workload charts).
  bool show_grid = true;

  /// Meta key/value header line above the panels.
  bool show_meta = true;

  /// Extra diagonal hatching on composite rectangles so they survive
  /// grayscale colormaps.
  bool hatch_composites = false;

  /// Zoom: restrict the time axis to this window (interactive mode).
  std::optional<model::TimeRange> time_window;

  /// Display only these cluster ids (empty = all), preserving order.
  std::vector<int> cluster_filter;

  /// Display only tasks of these types (empty = all). Composites are
  /// synthesized from the filtered tasks, so hiding e.g. "transfer" also
  /// hides its overlaps (the paper's "focus on specific parts of the
  /// schedule by filtering").
  std::vector<std::string> type_filter;

  /// When nonempty, tasks whose property `highlight_key` equals
  /// `highlight_value` are filled with `highlight_bg` (paper Fig. 13:
  /// "highlighted in yellow the jobs of user 6447").
  std::string highlight_key;
  std::string highlight_value;
  color::Color highlight_bg{255, 221, 0, 255};

  /// Approximate number of ticks on the time axis.
  int time_ticks = 8;

  /// See LodMode; `lod_density` is the kAuto threshold in visible entries
  /// per pixel column (measured before the type filter).
  LodMode lod = LodMode::kDefault;
  int lod_density = 4;

  /// See EdgeMode; `edge_density` is the arrows-vs-heat-lane budget in
  /// visible dependency edges per pixel column (EdgeMode::kAuto only).
  EdgeMode edges = EdgeMode::kDefault;
  int edge_density = 2;
};

/// One dependency arrow in device coordinates, already clipped to its
/// panel: from the source task's end time at its representative host row
/// to the destination task's start time at its row.
struct EdgeArrow {
  double x0 = 0, y0 = 0, x1 = 0, y1 = 0;
  /// Clipping kept the destination endpoint, so the head barbs draw.
  bool head = false;
  /// Lies on the critical path: painted on top, in the critical color.
  bool critical = false;
};

/// Per-pixel-column dependency density strip along one panel's bottom
/// edge: levels[i] is the quantized (0..255) edge count of column i,
/// painted as alpha on the heat color with equal-level runs merged.
struct EdgeHeatLane {
  std::size_t panel_index = 0;
  double x = 0;      // device x of column 0
  double col_w = 1;  // device width of one column
  double y = 0, h = 0;
  std::vector<std::uint8_t> levels;
};

/// Edge-rendering counters (`jedule info`, serve /stats).
struct EdgeRenderStats {
  std::size_t considered = 0;  // visible entries inspected across panels
  std::size_t arrows = 0;      // individual arrows laid out (incl. critical)
  std::size_t critical_arrows = 0;
  std::size_t heat_panels = 0;   // panels that fell back to the heat lane
  std::size_t heat_columns = 0;  // nonzero heat-lane columns
};

/// One rectangle of the layout, 40 bytes: geometry plus indices. It owns
/// no strings — the label (the task id) and the colors are looked up
/// through the layout (GanttLayout::label, GanttLayout::style_of).
struct TaskBox {
  double x = 0, y = 0, w = 0, h = 0;
  /// Ordinary box: task index in GanttLayout::tasks. Composite box:
  /// index into GanttLayout::composites(). kNoTask for LOD density bins.
  std::uint32_t task_index = 0;
  /// Slot in GanttLayout::styles.
  std::uint32_t style_slot : 29 = 0;
  std::uint32_t composite : 1 = 0;
  std::uint32_t highlighted : 1 = 0;
  /// Density bin synthesized by LOD aggregation: colored by the dominant
  /// task type of its pixel cell, no backing task, skipped by hit_test().
  std::uint32_t lod_bin : 1 = 0;

  static constexpr std::uint32_t kNoTask = static_cast<std::uint32_t>(-1);
  static constexpr std::uint32_t kMaxStyleSlots = 1u << 29;
};

struct PanelLayout {
  int cluster_id = 0;
  std::string title;
  double x = 0, y = 0, w = 0, h = 0;
  model::TimeRange time_range;  // the window this panel displays
  int hosts = 0;

  double x_of_time(double t) const {
    return x + (t - time_range.begin) / time_range.length() * w;
  }
  double row_height() const { return h / hosts; }
};

/// A layout refers to its tasks by index: it borrows the schedule it was
/// computed from (through its TaskView) and, when LayoutHints::composites
/// was consumed, that composite list. Both must outlive the layout
/// (DESIGN.md §4k).
struct GanttLayout {
  int width = 0;
  int height = 0;
  std::string header;
  std::vector<PanelLayout> panels;

  /// The schedule the layout was computed from (borrowed).
  model::TaskView tasks;

  /// Composite side list, borrowed from LayoutHints::composites or owned
  /// (synthesized by this layout); composite boxes index into it.
  const std::vector<model::Composite>& composites() const {
    return borrowed_composites != nullptr ? *borrowed_composites
                                          : owned_composites;
  }
  const std::vector<model::Composite>* borrowed_composites = nullptr;
  std::vector<model::Composite> owned_composites;

  /// Palette: one slot per distinct task type, composite member-type set
  /// and the highlight override. TaskBox::style_slot indexes it.
  std::vector<color::TaskStyle> styles;

  /// Ordinary boxes first, then LOD density bins, composite boxes last
  /// (paint order).
  std::vector<TaskBox> boxes;

  /// Per panel (same order as `panels`): 1 when the panel was rendered as
  /// LOD density bins instead of exact task rectangles.
  std::vector<std::uint8_t> panel_lod;

  /// True when only the viewport-culled candidates were visited instead
  /// of the full task list (hints.index + style.time_window).
  bool culled = false;
  /// Ordinary tasks the layout visited: every task, or the window's
  /// candidates when culled.
  std::size_t tasks_visited = 0;

  /// Dependency rendering (DESIGN.md §4j): clipped arrows, per-panel heat
  /// lanes, and the counters behind `jedule info` / serve /stats. Arrows
  /// flagged `critical` paint last, over the ordinary ones.
  std::vector<EdgeArrow> edge_arrows;
  std::vector<EdgeHeatLane> edge_lanes;
  EdgeRenderStats edge_stats;

  int label_font_size = 13;
  int min_label_font_size = 11;
  int axes_font_size = 12;

  /// The box's label (its task id); empty for LOD bins.
  std::string_view label(const TaskBox& box) const {
    if (box.lod_bin) return {};
    return box.composite ? composites()[box.task_index].task.id()
                         : tasks.id(box.task_index);
  }
  /// The type of the task a box shows ("composite" for composites). Not
  /// for LOD bins.
  const std::string& type_of(const TaskBox& box) const {
    return box.composite ? composites()[box.task_index].task.type()
                         : *tasks.type(box.task_index);
  }
  const color::TaskStyle& style_of(const TaskBox& box) const {
    return styles[box.style_slot];
  }
};

/// Pixel-snapping grid for the tile cache: time `t` maps to the absolute
/// pixel column floor((t - anchor) * cols_per_time + 0.5), and a box lands
/// at device x = panel.x + (column - origin_col). Because the mapping is
/// anchored (not window-relative), a pan by a whole number of pixels
/// shifts every box by exactly that integer — tiles stay byte-identical
/// across pans.
struct SnapGrid {
  double anchor = 0;
  double cols_per_time = 1;
  long long origin_col = 0;
};

/// Optional accelerators for layout_gantt. With `index` set and a time
/// window active, only tasks intersecting the window are laid out
/// (composites are synthesized from the window-extent closure, so every
/// box intersecting the window is identical to the full layout's).
struct LayoutHints {
  const model::TaskIndex* index = nullptr;

  /// O(log n + k) window queries over the dependency edges. Without it an
  /// active EdgeMode lays out every panel's edges in one pass over the
  /// schedule's dependencies — the resulting layout is identical, just
  /// O(m) instead of O(visible).
  const model::EdgeIndex* edge_index = nullptr;

  /// Skip Schedule::validate() (the caller validated once already).
  bool assume_validated = false;

  /// Resolve LodMode::kDefault to kAuto instead of kOff (interactive).
  bool interactive = false;

  /// Pre-decided per-shown-panel LOD (the tile cache decides once per
  /// frame so every tile of a frame agrees); overrides the density probe.
  std::optional<std::vector<std::uint8_t>> panel_lod_override;

  /// Mark LOD panels but skip computing their density bins (the tile
  /// cache's label-overlay layout: bins are painted by the tiles).
  bool skip_lod_bins = false;

  /// Precomputed composites of the *whole, unfiltered* schedule (the
  /// serve engine maintains this list across appends with
  /// model::append_composites instead of resweeping every frame).
  /// Consumed only when no type filter is active and the layout is not
  /// viewport-culled — the only cases the precomputed list matches;
  /// otherwise it is ignored and composites are synthesized as usual.
  /// A layout that consumed it borrows it (GanttLayout::composites()).
  const std::vector<model::Composite>* composites = nullptr;

  std::optional<SnapGrid> snap;
};

/// Computes the layout; throws ValidationError on an invalid schedule and
/// ArgumentError on an empty time window or unknown filter clusters.
/// `threads` parallelizes the composite-synthesis sweep and the
/// index-free pass over the dependency edges (the rest of the layout is
/// sequential); the layout is identical for every thread count, and
/// for either form `tasks` views. The layout borrows the viewed schedule
/// (see GanttLayout); a TaskView of a temporary does not compile.
GanttLayout layout_gantt(model::TaskView tasks,
                         const color::ColorMap& colormap,
                         const GanttStyle& style, int threads = 1,
                         const LayoutHints& hints = {});

/// Counts one edge into a heat lane: adds 1 to the columns
/// [floor(u0), ceil(u1)) of acc, whose first element is column c_lo,
/// clamped to [c_lo, c_hi); an edge of no width counts in one column.
/// u0 <= u1 are the edge's ends in column coordinates. The adds are exact
/// (counts below 2^24), so a lane reads the same in any edge order.
void heat_add_edge(float* acc, long long c_lo, long long c_hi, double u0,
                   double u1);

/// Quantizes `n` heat counts to levels: out[i] is acc[i] * scale rounded
/// half up, saturated to [0, 255]. The heat lane calls it with
/// scale = 255 / (the lane's largest count).
void heat_quantize(const float* acc, std::size_t n, float scale,
                   std::uint8_t* out);

/// Paints a layout. The canvas must have the layout's dimensions.
void paint_gantt(const GanttLayout& layout, Canvas& canvas,
                 const GanttStyle& style);

// Individual paint passes of paint_gantt, exposed for the tile cache
// (tiles paint boxes only; the per-frame overlay paints header, labels
// and chrome on top of the blitted tiles).

/// Background fill plus the meta header line.
void paint_gantt_background(const GanttLayout& layout, Canvas& canvas);

/// The meta header line only (no background fill).
void paint_gantt_header(const GanttLayout& layout, Canvas& canvas);

/// All task boxes (fill, outline, hatch); labels only when `with_labels`.
void paint_gantt_boxes(const GanttLayout& layout, Canvas& canvas,
                       const GanttStyle& style, bool with_labels);

/// Task-id labels only (the tile path draws them as a frame overlay).
void paint_gantt_labels(const GanttLayout& layout, Canvas& canvas,
                        const GanttStyle& style);

/// Panel titles, grid lines, host labels, time axes and frames.
void paint_gantt_chrome(const GanttLayout& layout, Canvas& canvas,
                        const GanttStyle& style);

/// Dependency heat lanes, arrows, and the critical-path overlay (in that
/// paint order). The tile path calls this per frame, over the blitted
/// tiles and under labels/chrome — tiles themselves never contain edges,
/// so toggling edges can never invalidate the tile cache.
void paint_gantt_edges(const GanttLayout& layout, Canvas& canvas);

/// The horizontal span (x, width) panels occupy for `style` — the fixed
/// chrome margins, shared with the tile cache's pixel grid.
struct PanelExtent {
  double x = 0;
  double w = 0;
};
PanelExtent gantt_panel_extent(const GanttStyle& style);

/// Topmost box containing pixel (x, y): composites win over their members,
/// later-drawn boxes over earlier ones. LOD density bins are not hittable.
/// nullptr if the pixel shows no task.
const TaskBox* hit_test(const GanttLayout& layout, double x, double y);

/// Panel containing pixel (x, y), or nullptr.
const PanelLayout* panel_at(const GanttLayout& layout, double x, double y);

/// "Nice" tick positions (1/2/5 x 10^k steps) covering `range`.
std::vector<double> nice_ticks(const model::TimeRange& range, int about);

}  // namespace jedule::render
