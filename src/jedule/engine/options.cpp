#include "jedule/engine/options.hpp"

#include "jedule/io/colormap_xml.hpp"
#include "jedule/render/framebuffer.hpp"
#include "jedule/util/error.hpp"
#include "jedule/util/parallel.hpp"
#include "jedule/util/strings.hpp"

namespace jedule::engine {

namespace {

std::string quoted(std::string_view value) {
  return "'" + std::string(value) + "'";
}

}  // namespace

render::LodMode parse_lod_mode(std::string_view value) {
  if (value == "auto") return render::LodMode::kAuto;
  if (value == "off") return render::LodMode::kOff;
  if (value == "force") return render::LodMode::kForce;
  throw ArgumentError("lod must be auto, off or force (got " + quoted(value) +
                      ")");
}

render::EdgeMode parse_edge_mode(std::string_view value) {
  if (value == "auto") return render::EdgeMode::kAuto;
  if (value == "off") return render::EdgeMode::kOff;
  if (value == "force") return render::EdgeMode::kForce;
  throw ArgumentError("edges must be auto, off or force (got " +
                      quoted(value) + ")");
}

model::TimeRange parse_time_window(std::string_view value) {
  const auto parts = util::split(value, ':');
  if (parts.size() != 2) {
    throw ArgumentError("window expects T0:T1 (got " + quoted(value) + ")");
  }
  const auto t0 = util::parse_double(parts[0]);
  const auto t1 = util::parse_double(parts[1]);
  if (!t0 || !t1 || !(*t1 > *t0)) {
    throw ArgumentError("window expects numbers with T1 > T0 (got " +
                        quoted(value) + ")");
  }
  return model::TimeRange{*t0, *t1};
}

std::vector<int> parse_cluster_ids(std::string_view value) {
  std::vector<int> ids;
  for (const auto& part : util::split(value, ',')) {
    const auto id = util::parse_int(part);
    if (!id) throw ArgumentError("bad cluster id " + quoted(part));
    ids.push_back(static_cast<int>(*id));
  }
  return ids;
}

int parse_positive_int(std::string_view value, const std::string& name,
                       int max) {
  const auto v = util::parse_int(value);
  if (!v || *v <= 0 || *v > max) {
    throw ArgumentError(name + " must be an integer from 1 to " +
                        std::to_string(max) + " (got " + quoted(value) + ")");
  }
  return static_cast<int>(*v);
}

void check_canvas(int width, int height) {
  if (static_cast<std::int64_t>(width) * height > render::kMaxPixels) {
    throw ArgumentError("width x height must be at most " +
                        std::to_string(render::kMaxPixels) + " pixels (got " +
                        std::to_string(width) + "x" + std::to_string(height) +
                        ")");
  }
}

bool parse_bool(const std::optional<std::string>& value,
                const std::string& name) {
  if (!value) return false;
  const std::string v = util::to_lower(*value);
  if (v.empty() || v == "1" || v == "true" || v == "on" || v == "yes") {
    return true;
  }
  if (v == "0" || v == "false" || v == "off" || v == "no") return false;
  throw ArgumentError(name + " must be a boolean (got " + quoted(*value) +
                      ")");
}

render::GanttStyle style_from_options(const OptionLookup& get) {
  render::GanttStyle style;
  if (const auto w = get("width")) {
    style.width = parse_positive_int(*w, "width");
  }
  if (const auto h = get("height")) {
    style.height = parse_positive_int(*h, "height");
  }
  check_canvas(style.width, style.height);
  if (parse_bool(get("aligned"), "aligned")) {
    style.view_mode = model::ViewMode::kAligned;
  }
  style.show_composites = !parse_bool(get("no-composites"), "no-composites");
  style.show_labels = !parse_bool(get("no-labels"), "no-labels");
  style.hatch_composites =
      parse_bool(get("hatch-composites"), "hatch-composites");
  if (const auto window = get("window")) {
    style.time_window = parse_time_window(*window);
  }
  if (const auto clusters = get("clusters")) {
    style.cluster_filter = parse_cluster_ids(*clusters);
  }
  if (const auto types = get("types")) {
    style.type_filter = util::split(*types, ',');
  }
  if (const auto highlight = get("highlight")) {
    const auto eq = highlight->find('=');
    if (eq == std::string::npos) {
      throw ArgumentError("highlight expects KEY=VALUE (got " +
                          quoted(*highlight) + ")");
    }
    style.highlight_key = highlight->substr(0, eq);
    style.highlight_value = highlight->substr(eq + 1);
  }
  if (const auto lod = get("lod")) {
    style.lod = parse_lod_mode(*lod);
  }
  if (const auto edges = get("edges")) {
    style.edges = parse_edge_mode(*edges);
  }
  if (const auto density = get("edge-density")) {
    style.edge_density = parse_positive_int(*density, "edge-density");
  }
  return style;
}

color::ColorMap colormap_from_options(const OptionLookup& get) {
  color::ColorMap map;
  if (const auto cmap = get("cmap")) {
    map = io::load_colormap_xml(*cmap);
  } else {
    map = color::standard_colormap();
  }
  if (parse_bool(get("grayscale"), "grayscale")) map = map.grayscale();
  return map;
}

render::RenderOptions render_options_from(const OptionLookup& get,
                                          bool allow_cmap_file) {
  if (!allow_cmap_file && get("cmap")) {
    throw ArgumentError("cmap is not available here (colormap files are "
                        "read on the client side)");
  }
  render::RenderOptions options;
  options.style = style_from_options(get);
  options.colormap = allow_cmap_file
                         ? colormap_from_options(get)
                         : (parse_bool(get("grayscale"), "grayscale")
                                ? color::standard_colormap().grayscale()
                                : color::standard_colormap());
  if (const auto threads = get("threads")) {
    options.threads =
        parse_positive_int(*threads, "threads", util::kMaxThreads);
  }
  return options;
}

}  // namespace jedule::engine
