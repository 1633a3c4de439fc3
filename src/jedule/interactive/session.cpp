#include "jedule/interactive/session.hpp"

#include <algorithm>
#include <cmath>

#include "jedule/engine/events.hpp"
#include "jedule/engine/options.hpp"
#include "jedule/engine/render_service.hpp"
#include "jedule/engine/store.hpp"
#include "jedule/io/colormap_xml.hpp"
#include "jedule/io/file.hpp"
#include "jedule/io/registry.hpp"
#include "jedule/model/stats.hpp"
#include "jedule/render/ascii.hpp"
#include "jedule/render/exporter.hpp"
#include "jedule/util/error.hpp"
#include "jedule/util/strings.hpp"

namespace jedule::interactive {

Session::Session(model::Schedule schedule, color::ColorMap colormap,
                 render::GanttStyle style)
    : state_(engine::make_entry(std::move(schedule)), std::move(colormap),
             std::move(style)) {}

Session::Session(engine::EntryPtr entry, std::string path, std::string format,
                 io::IngestOptions ingest, color::ColorMap colormap,
                 render::GanttStyle style)
    : state_(std::move(entry), std::move(colormap), std::move(style)),
      path_(std::move(path)),
      format_(std::move(format)),
      ingest_(ingest) {}

Session::Session(engine::EntryPtr entry, color::ColorMap colormap,
                 render::GanttStyle style)
    : state_(std::move(entry), std::move(colormap), std::move(style)) {}

std::string Session::describe(const model::Task& t) const {
  std::string out = "task " + t.id() + ": type=" + t.type() +
                    " start=" + util::format_fixed(t.start_time(), 3) +
                    " end=" + util::format_fixed(t.end_time(), 3) +
                    " resources=";
  std::vector<std::string> parts;
  for (const auto& cfg : t.configurations()) {
    std::string part = "cluster " + std::to_string(cfg.cluster_id) + " hosts";
    for (const auto& hr : cfg.hosts) {
      part += " " + std::to_string(hr.start);
      if (hr.nb > 1) part += "-" + std::to_string(hr.start + hr.nb - 1);
    }
    parts.push_back(std::move(part));
  }
  out += util::join(parts, "; ");
  for (const auto& [k, v] : t.properties()) {
    out += " " + k + "=" + v;
  }
  return out;
}

std::string Session::inspect(double x, double y) {
  const auto& lay = state_.layout();
  const std::string miss = "no task at (" + util::format_fixed(x, 0) + ", " +
                           util::format_fixed(y, 0) + ")";
  if (!std::isfinite(x) || !std::isfinite(y)) return miss;

  // Composites draw on top of their members and live at the tail of the
  // box list — check those first, topmost (last-drawn) wins.
  for (auto it = lay.boxes.rbegin();
       it != lay.boxes.rend() && it->composite; ++it) {
    if (x >= it->x && x < it->x + std::max(it->w, 1.0) && y >= it->y &&
        y < it->y + std::max(it->h, 1.0)) {
      // The side list's task plus its member lists, built on demand.
      return describe(
          model::composite_as_task(lay.composites()[it->task_index]));
    }
  }

  // Ordinary tasks resolve through the spatial index: a point query over
  // the 1-px time slab [time(x-1), time(x)] (hit_test gives every box at
  // least 1 px of width), then the exact box predicate per candidate.
  // This answers clicks without scanning the task list — including on
  // panels rendered as LOD density bins, which have no exact boxes.
  const render::PanelLayout* panel = render::panel_at(lay, x, y);
  if (panel == nullptr) {
    // A box's 1-px minimum width can overhang the panel's right edge.
    panel = render::panel_at(lay, x - 1.0, y);
  }
  if (panel == nullptr) return miss;

  auto time_of_x = [&](double px) {
    return panel->time_range.begin +
           (px - panel->x) / panel->w * panel->time_range.length();
  };
  const auto& type_filter = state_.style().type_filter;
  const model::TaskView tasks = state_.tasks();
  const auto type_selected = [&](std::uint32_t i) {
    return type_filter.empty() ||
           std::find(type_filter.begin(), type_filter.end(),
                     *tasks.type(i)) != type_filter.end();
  };

  long long best = -1;
  state_.index().query(
      panel->cluster_id, time_of_x(x - 1.0), time_of_x(x),
      [&](const model::TaskIndex::Entry& e) {
        if (!type_selected(e.task)) return;
        // Replicate the layout's clipping and box arithmetic exactly so
        // the answer matches what hit_test on a full layout would return.
        const double t0 = std::max(e.begin, panel->time_range.begin);
        const double t1 = std::min(e.end, panel->time_range.end);
        if (t1 <= t0 && !(e.begin == e.end && t0 == e.begin)) return;
        const double bx = panel->x_of_time(t0);
        const double bw = panel->x_of_time(t1) - bx;
        const double by = panel->y + panel->row_height() * e.host_start;
        const double bh =
            panel->row_height() * (e.host_end - e.host_start + 1);
        if (x >= bx && x < bx + std::max(bw, 1.0) && y >= by &&
            y < by + std::max(bh, 1.0)) {
          best = std::max(best, static_cast<long long>(e.task));
        }
      });
  if (best < 0) return miss;
  return describe(tasks.task(static_cast<std::size_t>(best)));
}

std::string Session::info() const {
  const auto stats = model::compute_stats(schedule());
  std::string out = std::to_string(schedule().clusters().size()) +
                    " cluster(s), " + std::to_string(stats.task_count) +
                    " task(s), " + std::to_string(schedule().total_hosts()) +
                    " host(s), makespan=" +
                    util::format_fixed(stats.makespan, 3) + ", utilization=" +
                    util::format_fixed(stats.utilization * 100.0, 1) + "%";
  if (!schedule().dependencies().empty()) {
    out += ", " + std::to_string(schedule().dependencies().size()) +
           " dependency edge(s)";
  }
  return out;
}

void Session::reread() {
  if (path_.empty()) {
    throw Error("reread: session is not bound to a file");
  }
  state_.reset_entry(engine::load_entry(path_, format_, ingest_));
}

std::string Session::follow() {
  if (path_.empty()) {
    throw Error("follow: session is not bound to a file");
  }
  auto appended_msg = [this](std::size_t n) {
    return "appended " + std::to_string(n) + " task(s) (" +
           std::to_string(state_.entry()->task_count()) + " total)";
  };

  const bool csv =
      format_.empty() ? util::ends_with(path_, ".csv") : format_ == "csv";
  if (csv) {
    const std::string content = io::read_file(path_);
    if (!follow_offset_ || content.size() < *follow_offset_) {
      // First poll (resynchronize entry and byte offset from one read) or
      // a truncated/rewritten file: start over from the full content.
      state_.reset_entry(
          engine::parse_entry(content, path_, format_, ingest_));
      const bool first = !follow_offset_.has_value();
      follow_offset_ = content.size();
      return first ? "following " + path_ + " (" +
                         std::to_string(state_.entry()->task_count()) +
                         " task(s))"
                   : "reloaded " + path_ + " (file shrank)";
    }
    std::string_view tail{content};
    tail.remove_prefix(*follow_offset_);
    // Only consume whole lines; a writer caught mid-append keeps its
    // partial last line for the next poll.
    const auto last_nl = tail.rfind('\n');
    if (last_nl == std::string_view::npos) return "no new tasks";
    tail = tail.substr(0, last_nl + 1);
    try {
      const auto events = engine::parse_event_lines(std::string(tail));
      if (!events.empty()) {
        state_.reset_entry(engine::append_entry(state_.entry(), events));
      }
      *follow_offset_ += tail.size();
      return events.empty() ? "no new tasks" : appended_msg(events.size());
    } catch (const Error&) {
      // Tail not appendable (malformed line, duplicate id, overlap):
      // degrade to a full reload of whatever the file now holds.
      state_.reset_entry(
          engine::parse_entry(content, path_, format_, ingest_));
      follow_offset_ = content.size();
      return "reloaded " + path_ + " (tail not appendable)";
    }
  }

  // Formats without a line-oriented tail (XML): re-parse the file, then
  // append only the new tasks — the parse is O(n) but the index, hash and
  // composite extension stay O(delta).
  model::Schedule fresh = io::load_schedule(path_, format_, ingest_);
  const std::size_t have = state_.entry()->task_count();
  if (fresh.tasks().size() == have) return "no new tasks";
  if (fresh.tasks().size() > have) {
    try {
      const auto events = engine::events_from_tasks(fresh, have);
      state_.reset_entry(engine::append_entry(state_.entry(), events));
      return appended_msg(events.size());
    } catch (const Error&) {
      // Non-contiguous allocation or a prefix change: fall through.
    }
  }
  state_.reset_entry(engine::make_entry(std::move(fresh), path_));
  return "reloaded " + path_;
}

void Session::snapshot(const std::string& path) {
  render::RenderOptions options;
  options.style = state_.style();
  options.colormap = state_.colormap();
  const std::string format =
      render::ExporterRegistry::instance().resolve("", path).name();
  engine::RenderService service;
  io::write_file(path, *service.render(state_.entry(), options, format).bytes);
}

std::string Session::execute(const std::string& command) {
  const auto words = util::split_ws(command);
  if (words.empty()) return "";
  const std::string& op = words[0];

  auto need_args = [&](std::size_t n) {
    if (words.size() != n + 1) {
      throw ArgumentError("command '" + op + "' expects " + std::to_string(n) +
                          " argument(s)");
    }
  };
  auto as_double = [&](const std::string& s) {
    auto v = util::parse_double(s);
    if (!v) throw ArgumentError("'" + s + "' is not a number");
    return *v;
  };
  auto window_echo = [&]() {
    const auto w = state_.current_window();
    return "window [" + util::format_fixed(w.begin, 3) + ", " +
           util::format_fixed(w.end, 3) + "]";
  };

  if (op == "zoom") {
    if (words.size() == 2) {
      zoom(as_double(words[1]));
      return window_echo();
    }
    need_args(2);
    zoom_to_time(as_double(words[1]), as_double(words[2]));
    return "window [" + words[1] + ", " + words[2] + "]";
  }
  if (op == "window") {
    // Like "zoom <t0> <t1>" but echoes the clamped result, so scripts see
    // what the view actually shows.
    need_args(2);
    zoom_to_time(as_double(words[1]), as_double(words[2]));
    return window_echo();
  }
  if (op == "pan") {
    need_args(1);
    pan(as_double(words[1]));
    return window_echo();
  }
  if (op == "reset") {
    need_args(0);
    reset_view();
    return "view reset";
  }
  if (op == "clusters") {
    need_args(1);
    if (words[1] == "all") {
      select_all_clusters();
      return "showing all clusters";
    }
    std::vector<int> ids = engine::parse_cluster_ids(words[1]);
    const std::size_t count = ids.size();
    select_clusters(std::move(ids));
    return "showing " + std::to_string(count) + " cluster(s)";
  }
  if (op == "types") {
    // Task-type filter ("a user might only be interested in a certain task
    // type", Sec. II.B).
    need_args(1);
    if (words[1] == "all") {
      state_.set_type_filter({});
      return "showing all task types";
    }
    auto types = util::split(words[1], ',');
    const std::size_t count = types.size();
    state_.set_type_filter(std::move(types));
    return "showing " + std::to_string(count) + " task type(s)";
  }
  if (op == "mode") {
    need_args(1);
    if (words[1] == "scaled") {
      set_view_mode(model::ViewMode::kScaled);
    } else if (words[1] == "aligned") {
      set_view_mode(model::ViewMode::kAligned);
    } else {
      throw ArgumentError("mode must be 'scaled' or 'aligned'");
    }
    return "mode " + words[1];
  }
  if (op == "cmap") {
    // "Color maps can also be changed on the fly" (paper conclusions).
    need_args(1);
    set_colormap(io::load_colormap_xml(words[1]));
    return "colormap " + words[1];
  }
  if (op == "grayscale") {
    need_args(1);
    if (words[1] == "on") set_grayscale(true);
    else if (words[1] == "off") set_grayscale(false);
    else throw ArgumentError("grayscale must be 'on' or 'off'");
    return "grayscale " + words[1];
  }
  if (op == "lod") {
    need_args(1);
    set_lod(engine::parse_lod_mode(words[1]));
    return "lod " + words[1];
  }
  if (op == "edges") {
    need_args(1);
    set_edges(engine::parse_edge_mode(words[1]));
    return "edges " + words[1];
  }
  if (op == "edge-density") {
    need_args(1);
    set_edge_density(engine::parse_positive_int(words[1], "edge-density"));
    return "edge-density " + words[1];
  }
  if (op == "inspect" || op == "click") {
    need_args(2);
    return inspect(as_double(words[1]), as_double(words[2]));
  }
  if (op == "frame") {
    need_args(0);
    frame();
    return frame_log().last().summary();
  }
  if (op == "stats") {
    need_args(0);
    return frame_log().summary();
  }
  if (op == "info") {
    need_args(0);
    return info();
  }
  if (op == "ascii") {
    // In-terminal view of the current zoom/selection (the stand-in for the
    // Swing window when no display is available).
    need_args(0);
    const auto& style = state_.style();
    render::AsciiOptions ao;
    ao.time_window = style.time_window;
    ao.cluster_filter = style.cluster_filter;
    ao.type_filter = style.type_filter;
    ao.view_mode = style.view_mode;
    ao.assume_validated = true;  // entries validate at ingest
    return render::render_ascii(state_.tasks(), ao);
  }
  if (op == "reread") {
    need_args(0);
    reread();
    return "reloaded " + path_;
  }
  if (op == "follow") {
    // One live-trace poll; `view --follow` runs this in a loop.
    need_args(0);
    return follow();
  }
  if (op == "export") {
    need_args(1);
    snapshot(words[1]);
    return "wrote " + words[1];
  }
  if (op == "help") {
    return "commands: zoom <factor>|zoom <t0> <t1>, window <t0> <t1>, "
           "pan <dt>, reset, clusters all|<ids>, types all|<names>, "
           "mode scaled|aligned, grayscale on|off, lod auto|off|force, "
           "edges auto|off|force, edge-density <n>, cmap <file>, "
           "inspect <x> <y>, frame, stats, info, ascii, reread, "
           "follow, export <path>, help";
  }
  throw ArgumentError("unknown command '" + op + "' (try 'help')");
}

}  // namespace jedule::interactive
