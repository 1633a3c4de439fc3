#pragma once

// RenderOptions bundles everything an export needs — style, colormap and
// worker-thread count — into one object handed CLI -> gantt -> exporter,
// replacing the per-call (colormap, style, ...) parameter threading.

#include "jedule/color/colormap.hpp"
#include "jedule/render/gantt.hpp"
#include "jedule/util/parallel.hpp"

namespace jedule::render {

struct RenderOptions {
  GanttStyle style;
  color::ColorMap colormap = color::standard_colormap();

  /// Worker threads for composite synthesis, band rasterization and PNG
  /// encoding. <= 0 (the default) resolves to JEDULE_THREADS when set,
  /// else to the hardware concurrency. The rendered bytes are identical
  /// for every thread count.
  int threads = 0;

  /// Optional spatial index over the schedule (must outlive the render).
  /// With a time window set, the layout culls to the window through it —
  /// same boxes, O(visible) work — instead of scanning every task.
  const model::TaskIndex* task_index = nullptr;

  /// Optional dependency-edge index (must outlive the render); see
  /// LayoutHints::edge_index. With it, edge layout costs O(log n +
  /// visible) per panel instead of a brute-force dependency scan.
  const model::EdgeIndex* edge_index = nullptr;

  /// Precomputed unfiltered composite list (must outlive the render); see
  /// LayoutHints::composites. The engine passes its per-entry cached list
  /// so repeated/appended renders skip the full overlap sweep.
  const std::vector<model::Composite>* composites = nullptr;

  /// Skip validation inside the layout and the ASCII exporter — set by
  /// callers that validated at ingest (the engine's entries always are).
  bool assume_validated = false;

  int resolved_threads() const { return util::resolve_threads(threads); }
};

/// layout_gantt with the bundled colormap/style/threads.
inline GanttLayout layout_gantt(model::TaskView tasks,
                                const RenderOptions& options) {
  LayoutHints hints;
  hints.index = options.task_index;
  hints.edge_index = options.edge_index;
  hints.composites = options.composites;
  hints.assume_validated = options.assume_validated;
  return layout_gantt(tasks, options.colormap, options.style,
                      options.resolved_threads(), hints);
}

}  // namespace jedule::render
