#pragma once

// Plain-text Gantt rendering for terminals. The original tool opens a
// Swing window in interactive mode; without a display, the `view`
// subcommand prints this view instead, so "run the simulation, look at
// the schedule, tweak, re-read" still works over SSH. One character cell
// covers (host band x time bucket); each task type gets a stable letter.

#include <string>

#include "jedule/model/task_view.hpp"

namespace jedule::render {

struct AsciiOptions {
  /// Character columns of the time axis.
  int width = 72;

  /// A cluster taller than this many rows groups several hosts per row.
  int max_rows_per_cluster = 16;

  /// Restrict to this window (e.g. the interactive session's zoom).
  std::optional<model::TimeRange> time_window;

  /// Show only these clusters (empty = all).
  std::vector<int> cluster_filter;

  /// Show only tasks of these types (empty = all).
  std::vector<std::string> type_filter;

  /// Print the type -> letter legend under the chart.
  bool show_legend = true;

  model::ViewMode view_mode = model::ViewMode::kScaled;

  /// Skip validation (the caller validated at ingest).
  bool assume_validated = false;
};

/// Renders the schedule as text. Cells: '.' idle, a type letter where one
/// type occupies the cell, '*' where several types mix.
std::string render_ascii(model::TaskView tasks,
                         const AsciiOptions& options = {});

}  // namespace jedule::render
