#pragma once

// One render-option parser for every frontend. The CLI used to build
// RenderOptions in cli/main.cpp, the view loop re-parsed `lod`/`window`
// arguments in Session::execute, and `jedule serve` would have added a
// third copy for HTTP query parameters. Instead, every frontend adapts its
// key/value source (flag map, script words, query string) to an
// OptionLookup and gets the same validation and the same error messages.
//
// Option names are the CLI flag names without dashes: width, height,
// aligned, window, clusters, types, highlight, lod, edges, edge-density,
// grayscale, cmap, no-composites, no-labels, hatch-composites, threads.

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "jedule/color/colormap.hpp"
#include "jedule/model/schedule.hpp"
#include "jedule/render/gantt.hpp"
#include "jedule/render/options.hpp"

namespace jedule::engine {

/// Returns the raw value set for an option name, or nullopt when the
/// caller did not set it. Boolean options may map to an empty string
/// (a bare CLI flag counts as true).
using OptionLookup =
    std::function<std::optional<std::string>(const std::string&)>;

// -- scalar parsers (shared error messages) ----------------------------

/// "auto" | "off" | "force"; throws ArgumentError otherwise.
render::LodMode parse_lod_mode(std::string_view value);

/// "auto" | "off" | "force" for dependency-edge rendering; throws
/// ArgumentError otherwise.
render::EdgeMode parse_edge_mode(std::string_view value);

/// "T0:T1" with finite T1 > T0; throws ArgumentError otherwise.
model::TimeRange parse_time_window(std::string_view value);

/// Comma-separated integer cluster ids; throws ArgumentError otherwise.
std::vector<int> parse_cluster_ids(std::string_view value);

/// Integer in [1, max] (util::kMaxThreads for thread counts); `name`
/// labels the error message.
int parse_positive_int(std::string_view value, const std::string& name,
                       int max = 1 << 24);

/// Throws ArgumentError unless width x height is at most
/// render::kMaxPixels.
void check_canvas(int width, int height);

/// Boolean option value: unset -> false; "", "1", "true", "on", "yes" ->
/// true; "0", "false", "off", "no" -> false; anything else throws.
bool parse_bool(const std::optional<std::string>& value,
                const std::string& name);

// -- aggregate builders ------------------------------------------------

/// Style from the options listed above (everything except cmap/grayscale
/// and threads). Unset options keep the GanttStyle defaults.
render::GanttStyle style_from_options(const OptionLookup& get);

/// Colormap from "cmap" (a colormap-XML path; falls back to the built-in
/// standard map) and "grayscale".
color::ColorMap colormap_from_options(const OptionLookup& get);

/// Complete RenderOptions: style + colormap + "threads". When
/// `allow_cmap_file` is false the "cmap" option is rejected instead of
/// read — the HTTP frontend must not turn a query parameter into a
/// server-side file read.
render::RenderOptions render_options_from(const OptionLookup& get,
                                          bool allow_cmap_file = true);

}  // namespace jedule::engine
