// jedule — command-line mode of the schedule visualizer (paper Sec. II.D.2).
//
//   jedule render <schedule> --out out.png [options]   batch image export
//   jedule batch <schedules...> --out-dir DIR          concurrent multi-export
//   jedule view <schedule> [--script file]             scripted interactive mode
//   jedule info <schedule>                             summary + statistics
//   jedule convert <schedule> --out out.{xml,csv}      format conversion
//   jedule snapshot <schedule> --out out.jbin          binary snapshot (mmap reopen)
//   jedule formats                                     registered parsers/exporters
//   jedule serve [--port N]                            long-lived HTTP render daemon

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <span>
#include <sstream>
#include <thread>

#include "jedule/cli/args.hpp"
#include "jedule/cli/demos.hpp"
#include "jedule/color/colormap.hpp"
#include "jedule/engine/options.hpp"
#include "jedule/engine/render_service.hpp"
#include "jedule/engine/store.hpp"
#include "jedule/interactive/session.hpp"
#include "jedule/io/csv.hpp"
#include "jedule/io/file.hpp"
#include "jedule/io/jedule_xml.hpp"
#include "jedule/io/registry.hpp"
#include "jedule/io/snapshot.hpp"
#include "jedule/model/stats.hpp"
#include "jedule/render/exporter.hpp"
#include "jedule/render/gantt.hpp"
#include "jedule/render/profile.hpp"
#include "jedule/serve/server.hpp"
#include "jedule/util/error.hpp"
#include "jedule/util/log.hpp"
#include "jedule/util/parallel.hpp"
#include "jedule/util/strings.hpp"
#include "jedule/workload/swf_parser.hpp"

namespace jedule::cli {
namespace {

/// Built at startup so the format lists always match the exporter registry
/// (a user-registered exporter shows up here automatically).
std::string usage() {
  const auto& registry = render::ExporterRegistry::instance();
  std::string u =
      "usage: jedule <command> [options]\n"
      "\n"
      "commands:\n"
      "  render <schedule> --out FILE    export an image (" +
      registry.extension_summary() +
      ")\n"
      "  batch <schedule...> --out-dir DIR\n"
      "                                  export many schedules concurrently\n"
      "  view <schedule> [--script FILE] scripted interactive session\n"
      "  info <schedule>                 print schedule statistics\n"
      "  convert <schedule> --out FILE   convert between formats (.xml .csv)\n"
      "  snapshot <schedule> --out FILE  write a .jbin binary snapshot;\n"
      "                                  .jbin inputs reopen via mmap\n"
      "                                  everywhere a schedule is accepted\n"
      "  formats                         list registered parsers and exporters\n"
      "  demo [NAME] [--out FILE]        regenerate a case-study schedule\n"
      "                                  (no NAME lists the catalog)\n"
      "  profile <schedule> --out FILE   utilization-over-time chart\n"
      "                                  (.png .ppm .svg)\n"
      "  serve [--port N]                HTTP daemon: POST /schedules,\n"
      "                                  GET /schedules/{id}/render.{ext},\n"
      "                                  GET /schedules/{id}/tile, GET /stats\n"
      "\n"
      "render options:\n"
      "  --out FILE          output image (required)\n"
      "  --cmap FILE         colormap XML (default: built-in standard map)\n"
      "  --grayscale         collapse the colormap to grays\n"
      "  --width N           image width in pixels (default 1000)\n"
      "  --height N          image height in pixels (default 600)\n"
      "  --aligned           align cluster time axes (default: scaled)\n"
      "  --window T0:T1      restrict the time axis to [T0, T1]\n"
      "  --clusters IDS      comma-separated cluster ids to display\n"
      "  --types NAMES       comma-separated task types to display\n"
      "  --no-composites     do not synthesize overlap (composite) tasks\n"
      "  --no-labels         do not draw task-id labels\n"
      "  --hatch-composites  hatch composite rectangles (grayscale safety)\n"
      "  --highlight K=V     highlight tasks whose property K equals V\n"
      "  --lod auto|off|force\n"
      "                      level of detail: collapse sub-pixel tasks into\n"
      "                      density bins (default: off for exports, auto\n"
      "                      for interactive frames)\n"
      "  --edges auto|off|force\n"
      "                      dependency rendering: arrows while the visible\n"
      "                      edge count fits the per-column budget, a heat\n"
      "                      lane above it; force always bundles (default:\n"
      "                      auto — schedules without dependencies draw\n"
      "                      nothing). The critical path overlays in red.\n"
      "  --edge-density N    arrows-vs-heat budget in visible edges per\n"
      "                      pixel column (default 2)\n"
      "  --format NAME       force the input parser (see 'jedule formats')\n"
      "  --image-format NAME force the output format: " +
      util::join(registry.exporter_names(), " ") +
      "\n"
      "  --threads N         worker threads for parsing *and* rendering\n"
      "                      (default: JEDULE_THREADS env, else hardware\n"
      "                      concurrency); output is identical for every\n"
      "                      thread count\n"
      "  --ingest-stats      print a parse summary to stderr (time, MB/s,\n"
      "                      threads, chunks, gzip/mmap); text inputs\n"
      "                      only, a .jbin reopens without a parse\n"
      "  --verbose           log progress to stderr\n"
      "\n"
      "batch options: render options plus\n"
      "  --out-dir DIR       output directory (required; created if missing)\n"
      "  --ext EXT           output extension, e.g. .png (default .png)\n"
      "\n"
      "view options: render options plus\n"
      "  --script FILE       read commands from FILE instead of stdin\n"
      "  --frame-stats       render a frame after every command and print\n"
      "                      its timing and tile-cache counters\n"
      "  --follow            after the command stream ends, keep polling the\n"
      "                      file and append new tasks in O(delta) (CSV\n"
      "                      tails byte-for-byte; XML re-parses, appends\n"
      "                      the delta). Ctrl-C stops.\n"
      "  --poll-ms N         --follow poll interval (default 500)\n"
      "  --quiet-polls N     stop --follow after N consecutive polls with\n"
      "                      no growth (default 0: poll until SIGINT)\n"
      "\n"
      "serve options:\n"
      "  --host ADDR         listen address (default 127.0.0.1)\n"
      "  --port N            TCP port (default 8080; 0 picks a free port)\n"
      "  --threads N         request worker threads (default 4)\n"
      "  --queue N           admission queue depth; a full queue answers\n"
      "                      429 + Retry-After (default 32)\n"
      "  --deadline-ms N     per-request socket read/write deadline\n"
      "                      (default 30000)\n"
      "  --store-entries N   schedule-store LRU capacity (default 64)\n"
      "  --cache-mb N        rendered-artifact cache budget (default 128)\n"
      "\n"
      "output formats:\n";
  for (const auto* exporter : registry.exporters()) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-7s %-12s %s\n",
                  exporter->name().c_str(),
                  util::join(exporter->extensions(), " ").c_str(),
                  exporter->description().c_str());
    u += line;
  }
  return u;
}

/// --threads N feeds the chunked parallel parse (0 = JEDULE_THREADS env,
/// else hardware); the loaded schedule is identical at any thread count.
io::IngestOptions ingest_options_from_args(const Args& args) {
  io::IngestOptions opt;
  if (const auto t = args.value("threads")) {
    opt.threads =
        engine::parse_positive_int(*t, "threads", util::kMaxThreads);
  }
  return opt;
}

/// The one schedule-loading path of every command: engine::load_entry with
/// --format, plus the --ingest-stats line for text inputs (a `.jbin`
/// reopens its mmapped columns and index without a parse); `batch` names
/// the input on each line.
engine::EntryPtr load_entry_from_args(const Args& args,
                                      const std::string& path,
                                      const io::IngestOptions& opt) {
  engine::EntryPtr entry =
      engine::load_entry(path, args.value_or("format", ""), opt);
  if (args.has("ingest-stats") && !entry->ingest.format.empty()) {
    const std::string prefix =
        args.positional()[0] == "batch" ? path + ": " : std::string();
    std::cerr << prefix + io::ingest_summary(entry->ingest) + "\n";
  }
  return entry;
}

/// The single input of `render`, `info`, `convert`, ... loaded with the
/// --threads ingest options.
engine::EntryPtr load_single_entry(const Args& args,
                                   const std::string& command) {
  if (args.positional().size() != 2) {
    throw ArgumentError(command + ": expected exactly one schedule file");
  }
  return load_entry_from_args(args, args.positional()[1],
                              ingest_options_from_args(args));
}

/// The exporter --image-format names, else the one `path`'s extension
/// selects; ExporterRegistry::resolve's error when neither matches.
std::string image_format_for(const Args& args, const std::string& path) {
  return render::ExporterRegistry::instance()
      .resolve(args.value_or("image-format", ""), path)
      .name();
}

/// --out FILE, required by the exporting commands.
std::string required_out(const Args& args, const std::string& command) {
  auto out = args.value("out");
  if (!out) throw ArgumentError(command + ": --out FILE is required");
  return *out;
}

int cmd_render(const Args& args) {
  const std::string out = required_out(args, "render");
  const std::string format = image_format_for(args, out);
  const engine::EntryPtr entry = load_single_entry(args, "render");
  JED_INFO() << "loaded " << entry->task_count() << " tasks from "
             << entry->source;
  const auto options = options_from_args(args);
  engine::RenderService service;
  io::write_file(out, service.render_bytes(entry, options, format));
  JED_INFO() << "wrote " << out << " (threads=" << options.resolved_threads()
             << ")";
  return 0;
}

int cmd_batch(const Args& args) {
  const auto& pos = args.positional();
  if (pos.size() < 2) {
    throw ArgumentError("batch: expected at least one schedule file");
  }
  auto out_dir = args.value("out-dir");
  if (!out_dir) throw ArgumentError("batch: --out-dir DIR is required");
  std::string ext = args.value_or("ext", ".png");
  if (!ext.empty() && ext[0] != '.') ext = "." + ext;
  // Resolve the output format before doing any work.
  const std::string format = image_format_for(args, ext);

  const std::vector<std::string> inputs(pos.begin() + 1, pos.end());
  std::vector<std::string> outputs(inputs.size());
  std::map<std::string, std::string> stem_of;  // collision -> first input
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const std::string stem = std::filesystem::path(inputs[i]).stem().string();
    auto [it, inserted] = stem_of.emplace(stem, inputs[i]);
    if (!inserted) {
      throw ArgumentError("batch: '" + inputs[i] + "' and '" + it->second +
                          "' would both write " + stem + ext);
    }
    outputs[i] = (std::filesystem::path(*out_dir) / (stem + ext)).string();
  }
  std::filesystem::create_directories(*out_dir);

  // Files are dealt to the workers, and whatever concurrency is not
  // consumed at the file level is spent inside each parse and render, so
  // a single huge trace still uses every thread. One render service
  // serves every file; each artifact is written once, so nothing is
  // cached.
  render::RenderOptions options = options_from_args(args);
  const int threads = options.resolved_threads();
  const int file_workers =
      static_cast<int>(std::min<std::size_t>(inputs.size(),
                                             static_cast<std::size_t>(threads)));
  options.threads = std::max(1, threads / file_workers);
  io::IngestOptions ingest_opt;
  ingest_opt.threads = options.threads;
  engine::RenderService service;

  std::vector<std::string> errors(inputs.size());
  util::parallel_for(inputs.size(), file_workers, [&](std::size_t i) {
    try {
      const engine::EntryPtr entry =
          load_entry_from_args(args, inputs[i], ingest_opt);
      io::write_file(outputs[i], service.render_bytes(entry, options, format));
      JED_INFO() << "wrote " << outputs[i];
    } catch (const Error& e) {
      errors[i] = e.what();
    }
  });

  int failed = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (!errors[i].empty()) {
      std::cerr << "jedule: batch: " << inputs[i] << ": " << errors[i] << "\n";
      ++failed;
    }
  }
  std::cout << "batch: wrote " << (inputs.size() - static_cast<std::size_t>(failed))
            << "/" << inputs.size() << " files to " << *out_dir << " ("
            << file_workers << " file worker(s) x " << options.threads
            << " render thread(s))\n";
  return failed > 0 ? 1 : 0;
}

// Shared by the long-lived loops (serve, view --follow): SIGINT/SIGTERM
// only raise the flag; the drain happens on the main thread.
std::atomic<int> g_stop{0};

void stop_signal_handler(int) { g_stop.store(1); }

void install_stop_handler() {
  g_stop.store(0);
  struct sigaction sa = {};
  sa.sa_handler = stop_signal_handler;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

int cmd_view(const Args& args) {
  interactive::Session session(
      load_single_entry(args, "view"), args.positional()[1],
      args.value_or("format", ""), ingest_options_from_args(args),
      colormap_from_args(args), style_from_args(args));
  std::istringstream script_stream;
  std::istream* in = &std::cin;
  if (auto script = args.value("script")) {
    script_stream.str(io::read_file(*script));
    in = &script_stream;
  }
  // --frame-stats renders a frame through the tile cache after every view
  // command and reports its timing (cache hits/misses, box count, LOD).
  const bool frame_stats = args.has("frame-stats");
  std::string line;
  while (std::getline(*in, line)) {
    const auto trimmed = util::trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    if (trimmed == "quit" || trimmed == "exit") break;
    try {
      const std::string output = session.execute(std::string(trimmed));
      if (!output.empty()) std::cout << output << "\n";
      if (frame_stats && trimmed != "frame" && trimmed != "stats") {
        session.frame();
        std::cout << session.frame_log().last().summary() << "\n";
      }
    } catch (const Error& e) {
      std::cout << "error: " << e.what() << "\n";
    }
  }
  // --follow: after the command stream ends, keep polling the file for
  // appended tasks. Each poll with growth extends the entry in O(delta)
  // (CSV tails byte-for-byte; XML re-parses and appends the delta).
  if (args.has("follow")) {
    int poll_ms = 500;
    if (const auto p = args.value("poll-ms")) {
      poll_ms = engine::parse_positive_int(*p, "poll-ms");
    }
    long long quiet_limit = 0;  // 0: poll until SIGINT
    if (const auto q = args.value("quiet-polls")) {
      quiet_limit = engine::parse_positive_int(*q, "quiet-polls");
    }
    install_stop_handler();
    long long quiet = 0;
    while (g_stop.load() == 0) {
      const std::string status = session.follow();
      if (status == "no new tasks") {
        if (quiet_limit > 0 && ++quiet >= quiet_limit) break;
      } else {
        quiet = 0;
        std::cout << status << "\n" << std::flush;
        if (frame_stats) {
          session.frame();
          std::cout << session.frame_log().last().summary() << "\n";
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
    }
  }
  if (frame_stats && session.frame_log().frames() > 0) {
    std::cout << session.frame_log().summary() << "\n";
  }
  return 0;
}

int cmd_snapshot(const Args& args) {
  const std::string out = required_out(args, "snapshot");
  if (!util::ends_with(out, ".jbin")) {
    throw ArgumentError("snapshot: --out must end in .jbin");
  }
  // The entry holds exactly the two structures the snapshot stores; a
  // .jbin input round-trips (load mmapped, rewrite) without ever
  // materializing the AoS schedule.
  const engine::EntryPtr entry = load_single_entry(args, "snapshot");
  io::save_snapshot(entry->arena(), entry->index, out, &entry->edges);
  std::cout << "wrote " << out << " ("
            << std::filesystem::file_size(out) << " bytes, "
            << entry->task_count() << " task(s), id " << *entry->id << ")\n";
  return 0;
}

int cmd_info(const Args& args) {
  const engine::EntryPtr entry = load_single_entry(args, "info");
  const model::Schedule& schedule = entry->schedule();
  const auto stats = model::compute_stats(schedule);
  std::cout << "clusters:    " << schedule.clusters().size() << "\n";
  for (const auto& c : schedule.clusters()) {
    std::cout << "  [" << c.id << "] " << c.name << ": " << c.hosts
              << " hosts\n";
  }
  std::cout << "tasks:       " << stats.task_count << "\n";
  std::cout << "makespan:    " << util::format_fixed(stats.makespan, 3)
            << "\n";
  std::cout << "utilization: "
            << util::format_fixed(stats.utilization * 100.0, 1) << "%\n";
  std::cout << "idle time:   " << util::format_fixed(stats.idle_time, 3)
            << "\n";
  for (const auto& [type, area] : stats.area_by_type) {
    std::cout << "  area[" << type << "] = " << util::format_fixed(area, 3)
              << "\n";
  }
  if (!schedule.dependencies().empty()) {
    // Max per-column density on a 1000-column grid over the full time
    // range — the quantity the renderer's arrows-vs-heat budget compares
    // against, counted as the renderer counts a heat lane, per cluster
    // (the edges with an endpoint in it) in one pass over the edges.
    constexpr long long kCols = 1000;
    const model::TimeRange range = entry->full_range;
    const double len = range.length();
    const model::TaskView view(schedule);
    std::map<int, std::vector<float>> acc;  // per cluster id
    if (len > 0) {
      const auto col = [&](double t) {
        return (t - range.begin) / len * static_cast<double>(kCols);
      };
      view.for_each_dependency_cluster(
          0, view.dep_count(),
          [&](std::uint32_t src, std::uint32_t dst, std::span<const int> cids) {
            const double u0 = col(std::min(view.end(src), view.start(dst)));
            const double u1 = col(std::max(view.end(src), view.start(dst)));
            for (const int cid : cids) {
              std::vector<float>& a = acc[cid];
              if (a.empty()) a.assign(kCols, 0.0f);
              render::heat_add_edge(a.data(), 0, kCols, u0, u1);
            }
          });
    }
    std::size_t max_col = 0;
    for (const auto& [cid, a] : acc) {
      for (const float v : a) {
        max_col = std::max(max_col, static_cast<std::size_t>(v));
      }
    }
    // A `.jbin` entry loaded its edge index, critical path included.
    model::CriticalPath path;
    if (entry->edges.built()) {
      path.tasks = entry->edges->critical_path();
      path.time = entry->edges->critical_path_time();
    } else {
      path = model::critical_path(schedule);
    }
    std::cout << "edges:       " << schedule.dependencies().size() << "\n";
    std::cout << "  max edges/column: " << max_col
              << " (1000-column grid)\n";
    std::cout << "  critical path: " << path.tasks.size()
              << " task(s), length " << util::format_fixed(path.time, 3)
              << "\n";
  }
  if (!schedule.meta().empty()) {
    std::cout << "meta:\n";
    for (const auto& [k, v] : schedule.meta()) {
      std::cout << "  " << k << " = " << v << "\n";
    }
  }
  return 0;
}

/// Writes `schedule` as Jedule XML (.xml, .jed) or CSV (.csv) by `out`'s
/// extension; false for any other extension.
bool save_schedule_file(const model::Schedule& schedule,
                        const std::string& out) {
  if (util::ends_with(out, ".csv")) {
    io::save_schedule_csv(schedule, out);
  } else if (util::ends_with(out, ".xml") || util::ends_with(out, ".jed")) {
    io::save_schedule_xml(schedule, out);
  } else {
    return false;
  }
  return true;
}

int cmd_convert(const Args& args) {
  const std::string out = required_out(args, "convert");
  const engine::EntryPtr entry = load_single_entry(args, "convert");
  if (!save_schedule_file(entry->schedule(), out)) {
    throw ArgumentError("convert: output must end in .xml, .jed or .csv");
  }
  return 0;
}

int cmd_profile(const Args& args) {
  const std::string out = required_out(args, "profile");
  const engine::EntryPtr entry = load_single_entry(args, "profile");
  render::ProfileStyle style;
  if (const auto w = args.value("width")) {
    style.width = engine::parse_positive_int(*w, "width");
  }
  if (const auto h = args.value("height")) {
    style.height = engine::parse_positive_int(*h, "height");
  }
  engine::check_canvas(style.width, style.height);
  if (auto types = args.value("types")) {
    style.type_filter = util::split(*types, ',');
  }
  render::export_profile(entry->schedule(), style, out);
  return 0;
}

int cmd_demo(const Args& args) {
  if (args.positional().size() == 1) {
    for (const auto& [name, description] : demo_catalog()) {
      std::printf("  %-18s %s\n", name.c_str(), description.c_str());
    }
    return 0;
  }
  if (args.positional().size() != 2) {
    throw ArgumentError("demo: expected at most one demo name");
  }
  const engine::EntryPtr entry = engine::make_entry(
      make_demo(args.positional()[1]), args.positional()[1]);
  auto options = options_from_args(args);
  if (args.positional()[1] == "thunder") {
    // The bird's-eye view needs the Fig. 13 styling to be readable.
    options.style.show_labels = false;
    options.style.show_composites = false;
    if (options.style.highlight_key.empty()) {
      options.style.highlight_key = "user";
      options.style.highlight_value = "6447";
    }
  }
  engine::RenderService service;
  const auto out = args.value("out");
  if (!out) {
    std::cout << *service.render(entry, options, "ascii").bytes;
    return 0;
  }
  if (!save_schedule_file(entry->schedule(), *out)) {
    const std::string format = image_format_for(args, *out);
    io::write_file(*out, *service.render(entry, options, format).bytes);
  }
  std::cout << "wrote " << *out << "\n";
  return 0;
}

int cmd_serve(const Args& args) {
  serve::Server::Options opt;
  opt.host = args.value_or("host", "127.0.0.1");
  opt.port = 8080;
  if (const auto port = args.value("port")) {
    const auto v = util::parse_int(*port);
    if (!v || *v < 0 || *v > 65535) {
      throw ArgumentError("port must be in [0, 65535] (got '" + *port + "')");
    }
    opt.port = static_cast<int>(*v);
  }
  if (const auto t = args.value("threads")) {
    opt.threads =
        engine::parse_positive_int(*t, "threads", util::kMaxThreads);
  }
  if (const auto q = args.value("queue")) {
    opt.queue_capacity =
        static_cast<std::size_t>(engine::parse_positive_int(*q, "queue"));
  }
  if (const auto d = args.value("deadline-ms")) {
    opt.request_timeout_ms = engine::parse_positive_int(*d, "deadline-ms");
  }
  if (const auto e = args.value("store-entries")) {
    opt.store.max_entries =
        static_cast<std::size_t>(engine::parse_positive_int(*e, "store-entries"));
  }
  if (const auto mb = args.value("cache-mb")) {
    opt.render.artifact_bytes =
        static_cast<std::size_t>(engine::parse_positive_int(*mb, "cache-mb"))
        << 20;
  }

  serve::Server server(opt);
  server.start();
  std::cout << "jedule serve: listening on " << opt.host << ":"
            << server.port() << " (" << opt.threads << " worker(s), queue "
            << opt.queue_capacity << ")\n"
            << std::flush;

  install_stop_handler();

  while (g_stop.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::cout << "jedule serve: draining...\n" << std::flush;
  server.stop();
  const auto counters = server.counters();
  std::cout << "jedule serve: stopped (served " << counters.served
            << ", shed " << counters.rejected_429 << ")\n";
  return 0;
}

int cmd_formats() {
  std::cout << "input parsers:\n";
  for (const auto& name : io::ParserRegistry::instance().parser_names()) {
    std::cout << "  " << name << "\n";
  }
  std::cout << "output exporters:\n";
  for (const auto* e : render::ExporterRegistry::instance().exporters()) {
    std::printf("  %-7s %-12s %s\n", e->name().c_str(),
                util::join(e->extensions(), " ").c_str(),
                e->description().c_str());
  }
  return 0;
}

int run(int argc, char** argv) {
  // Register the SWF parser the same way a user extension would, so
  // `jedule render trace.swf` works out of the box.
  workload::register_swf_parser();

  const std::vector<std::string> value_flags = {
      "out",      "cmap",  "width",     "height", "window",
      "clusters", "types", "highlight", "format", "script",
      "threads",  "out-dir", "ext",     "image-format", "lod",
      "edges",    "edge-density",
      "host",     "port",  "queue",     "deadline-ms",  "store-entries",
      "cache-mb", "poll-ms", "quiet-polls"};
  const std::vector<std::string> known_flags = {
      "out",       "cmap",          "width",      "height",
      "window",    "clusters",      "types",      "highlight",  "format",
      "script",    "grayscale",     "aligned",    "no-composites",
      "no-labels", "hatch-composites", "verbose", "threads",
      "out-dir",   "ext",           "image-format", "lod", "frame-stats",
      "edges",     "edge-density",
      "host",      "port",          "queue",      "deadline-ms",
      "store-entries", "cache-mb",  "follow",     "poll-ms",
      "quiet-polls", "ingest-stats"};

  Args args(argc - 1, argv + 1, value_flags);
  if (args.has("verbose")) util::set_log_level(util::LogLevel::kInfo);
  for (const auto& flag : args.unused(known_flags)) {
    throw ArgumentError("unknown flag --" + flag);
  }
  if (args.positional().empty()) {
    std::cerr << usage();
    return 2;
  }
  const std::string& command = args.positional()[0];
  if (command == "render") return cmd_render(args);
  if (command == "batch") return cmd_batch(args);
  if (command == "view") return cmd_view(args);
  if (command == "info") return cmd_info(args);
  if (command == "convert") return cmd_convert(args);
  if (command == "snapshot") return cmd_snapshot(args);
  if (command == "formats") return cmd_formats();
  if (command == "demo") return cmd_demo(args);
  if (command == "profile") return cmd_profile(args);
  if (command == "serve") return cmd_serve(args);
  std::cerr << "unknown command '" << command << "'\n\n" << usage();
  return 2;
}

}  // namespace
}  // namespace jedule::cli

int main(int argc, char** argv) {
  try {
    return jedule::cli::run(argc, argv);
  } catch (const jedule::Error& e) {
    std::cerr << "jedule: " << e.what() << "\n";
    return 1;
  }
}
