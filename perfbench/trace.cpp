#include "trace.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "jedule/engine/events.hpp"
#include "jedule/engine/options.hpp"
#include "jedule/engine/render_service.hpp"
#include "jedule/engine/store.hpp"
#include "jedule/io/csv.hpp"
#include "jedule/io/file.hpp"
#include "jedule/io/registry.hpp"
#include "jedule/io/snapshot.hpp"
#include "jedule/model/builder.hpp"
#include "jedule/model/composite.hpp"
#include "jedule/render/deflate.hpp"
#include "jedule/render/options.hpp"
#include "jedule/render/png.hpp"
#include "jedule/render/raster_canvas.hpp"
#include "jedule/serve/server.hpp"
#include "jedule/util/parallel.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
namespace engine = jedule::engine;
namespace io = jedule::io;
namespace model = jedule::model;
namespace render = jedule::render;
namespace serve = jedule::serve;

/// In-memory span recorder, used from one thread: the replay calls every
/// library function from the calling thread (the library's own workers are
/// not traced). Spans nest strictly, so a span's self time is its duration
/// minus `child_ms`, the durations of its direct children.
class Tracer {
 public:
  struct Span {
    std::string layer;
    std::string name;
    double t0 = 0, t1 = 0;  // ms since the tracer started
    double child_ms = 0;
    double ms() const { return t1 - t0; }
  };

  /// Runs `fn` inside a span; returns its result (or nothing).
  template <class F>
  auto run(const std::string& layer, const std::string& name, F&& fn) {
    const std::size_t id = open(layer, name);
    struct Closer {
      Tracer* t;
      std::size_t id;
      ~Closer() { t->close(id); }
    } closer{this, id};
    return fn();
  }

  std::size_t open(const std::string& layer, const std::string& name) {
    Span s;
    s.layer = layer;
    s.name = name;
    s.t0 = now();
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void close(std::size_t id) {
    Span& s = spans_[id];
    s.t1 = now();
    stack_.pop_back();
    if (!stack_.empty()) spans_[stack_.back()].child_ms += s.ms();
  }

  const Span& last(const std::string& name) const {
    for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
      if (it->name == name) return *it;
    }
    throw std::runtime_error("no span named " + name);
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// The spans as a Jedule schedule: one cluster for this process, one
  /// host row for its one tracing thread, task type = layer, times in ms.
  /// Nested spans overlap on the row and show as composites.
  model::Schedule to_schedule() const {
    model::ScheduleBuilder b;
    b.cluster(0, "jbench-trace", 1);
    b.meta("process", "jbench trace");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      b.task("s" + std::to_string(i) + "." + s.name, s.layer, s.t0,
             std::max(s.t1, s.t0 + 1e-6))
          .on(0, 0, 1);
    }
    return b.build();
  }

 private:
  double now() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;  // open spans, innermost last
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// One request of the seeded sequence (gen.cpp write_requests).
struct Request {
  std::string method;  // GET or POST
  std::string tail;    // under /schedules/{id}/, with the query string
  bool gzip = false;   // send Accept-Encoding: gzip
  std::string body;    // event lines for POST
  std::string route() const {
    if (method == "POST") return "append";
    return tail.rfind("tile", 0) == 0 ? "tile" : "render";
  }
};

std::vector<Request> read_requests(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<Request> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream words(line);
    Request r;
    std::string verb;
    words >> verb >> r.tail;
    r.gzip = verb == "GETZ";
    r.method = verb == "POST" ? "POST" : "GET";
    if (r.method == "POST") {
      std::size_t n = 0;
      words >> n;
      for (std::size_t i = 0; i < n && std::getline(in, line); ++i) {
        r.body += line + "\n";
      }
    }
    out.push_back(std::move(r));
  }
  return out;
}

serve::HttpRequest to_http(const Request& r, const std::string& id) {
  serve::HttpRequest h;
  h.method = r.method;
  h.version = "HTTP/1.1";
  h.target = "/schedules/" + id + "/" + r.tail;
  const std::size_t q = r.tail.find('?');
  h.path = "/schedules/" + id + "/" + r.tail.substr(0, q);
  if (q != std::string::npos) {
    std::istringstream params(r.tail.substr(q + 1));
    std::string kv;
    while (std::getline(params, kv, '&')) {
      const std::size_t eq = kv.find('=');
      h.query[kv.substr(0, eq)] = kv.substr(eq + 1);
    }
  }
  if (r.gzip) h.headers["accept-encoding"] = "gzip";
  h.body = r.body;
  return h;
}

/// The "id" field of an append response body.
std::string id_of(const std::string& json) {
  const std::size_t at = json.find("\"id\":\"");
  if (at == std::string::npos) throw std::runtime_error("no id in " + json);
  return json.substr(at + 6, 16);
}

/// One loopback HTTP/1.1 request (the server closes after each response);
/// returns the status code.
int loopback_get(int port, const std::string& target, bool gzip) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    throw std::runtime_error("connect failed");
  }
  std::string req = "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n";
  if (gzip) req += "Accept-Encoding: gzip\r\n";
  req += "\r\n";
  std::size_t sent = 0;
  while (sent < req.size()) {
    const ssize_t n = ::send(fd, req.data() + sent, req.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string resp;
  char buf[1 << 16];
  ssize_t n = 0;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  if (resp.size() < 12) return 0;
  return std::stoi(resp.substr(9, 3));
}

std::string fixed(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

using Metrics = std::map<std::string, double>;
using Window = std::optional<model::TimeRange>;

/// What the CLI render path produced; later phases reuse it.
struct CliResult {
  model::Schedule schedule;
  render::Framebuffer fb{1, 1};
  std::string png;
};

/// The CLI's render path (cli/main.cpp cmd_render), one span per library
/// call, under one root span whose coverage the trace reports.
CliResult cli_path(Tracer& tr, Metrics& m, const TraceConfig& cfg,
                   const Window& window) {
  const int T = cfg.threads;
  CliResult out;
  io::IngestStats ingest;
  const std::size_t root = tr.open("cli", "render_path");
  io::IngestOptions iopt;
  iopt.threads = T;
  out.schedule = tr.run("io", "load_schedule", [&] {
    return io::load_schedule(cfg.input, "", iopt, &ingest);
  });
  const model::Schedule& schedule = out.schedule;
  render::RenderOptions options;
  options.threads = T;
  options.style.time_window = window;
  std::optional<model::TaskIndex> index;
  if (window) {
    tr.run("model", "task_index", [&] { index.emplace(schedule); });
    options.task_index = &*index;
  }
  std::optional<model::EdgeIndex> edges;
  if (!schedule.dependencies().empty()) {
    tr.run("model", "edge_index", [&] { edges.emplace(schedule, T); });
    options.edge_index = &*edges;
  }
  // A full view consumes precomputed composites unchanged (the engine does
  // the same), which splits the sweep out of the layout span; a windowed
  // layout synthesizes them from the window closure itself.
  std::vector<model::Composite> composites;
  if (!window) {
    composites = tr.run("model", "composites", [&] {
      return model::synthesize_composites(schedule, nullptr, T);
    });
    options.composites = &composites;
  }
  const render::GanttLayout layout = tr.run(
      "render", "layout", [&] { return render::layout_gantt(schedule, options); });
  out.fb = tr.run("render", "paint", [&] {
    // render::render_raster's banded paint over the finished layout.
    render::Framebuffer fb(options.style.width, options.style.height);
    const auto h = static_cast<std::size_t>(fb.height());
    const auto bands = static_cast<std::size_t>(std::min(T, fb.height()));
    jedule::util::parallel_for(bands, T, [&](std::size_t b) {
      const int y0 = static_cast<int>(h * b / bands);
      const int y1 = static_cast<int>(h * (b + 1) / bands);
      render::Framebuffer band(fb.width(), y1 - y0);
      {
        render::RasterCanvas canvas(band, y0, fb.height());
        render::paint_gantt(layout, canvas, options.style);
      }
      fb.blit_rows(band, y0);
    });
    return fb;
  });
  out.png = tr.run("render", "encode_png",
                   [&] { return render::encode_png(out.fb, T); });
  tr.run("io", "write_file", [&] {
    io::write_file(cfg.scratch + "/library_path.png", out.png);
  });
  tr.close(root);

  const Tracer::Span& span = tr.spans()[root];
  m["trace.covered_ms"] = span.child_ms;
  m["trace.coverage"] = span.child_ms / span.ms();
  m["io.parse_ms"] = tr.last("load_schedule").ms();
  m["io.chunks"] = static_cast<double>(ingest.chunks);
  m["io.parallel"] = ingest.parallel ? 1 : 0;
  m["io.parse_mb_per_s"] =
      static_cast<double>(ingest.bytes) / 1e6 / (m["io.parse_ms"] / 1e3);
  m["render.boxes"] = static_cast<double>(layout.boxes.size());
  m["render.layout_ms"] = tr.last("layout").ms();
  m["render.paint_ms"] = tr.last("paint").ms();
  m["render.encode_ms"] = tr.last("encode_png").ms();
  return out;
}

/// Layer costs the CLI path does not isolate: serial parse and sweep,
/// the PNG encoder's two stages, and the indexes a full view skips.
void breakdowns(Tracer& tr, Metrics& m, const TraceConfig& cfg,
                const Window& window, const CliResult& cli) {
  const int T = cfg.threads;
  const auto filtered = tr.run("render", "filter_scanlines", [&] {
    return render::filter_scanlines(cli.fb, T);
  });
  tr.run("render", "deflate_compress", [&] {
    return render::deflate_compress(filtered.data(), filtered.size(), T);
  });
  io::IngestOptions serial;
  serial.threads = 1;
  tr.run("io", "load_schedule_t1",
         [&] { return io::load_schedule(cfg.input, "", serial); });
  if (window) {
    tr.run("model", "composites", [&] {
      return model::synthesize_composites(cli.schedule, nullptr, T);
    });
  }
  const auto found = tr.run("model", "composites_t1", [&] {
    return model::synthesize_composites(cli.schedule, nullptr, 1);
  });
  if (!window) {
    tr.run("model", "task_index", [&] { model::TaskIndex i(cli.schedule); });
  }
  if (cli.schedule.dependencies().empty()) {
    tr.run("model", "edge_index",
           [&] { model::EdgeIndex e(cli.schedule, T); });
  }
  m["render.filter_ms"] = tr.last("filter_scanlines").ms();
  m["render.deflate_ms"] = tr.last("deflate_compress").ms();
  m["io.parse_t1_ms"] = tr.last("load_schedule_t1").ms();
  m["model.composites_ms"] = tr.last("composites").ms();
  m["model.composites_t1_ms"] = tr.last("composites_t1").ms();
  m["model.composites_found"] = static_cast<double>(found.size());
  m["model.task_index_ms"] = tr.last("task_index").ms();
  m["model.edge_index_ms"] = tr.last("edge_index").ms();
}

/// One resident entry through the render service, plus one append. The
/// cold render must reproduce the CLI path's bytes.
engine::EntryPtr engine_phase(Tracer& tr, Metrics& m, const TraceConfig& cfg,
                              const Window& window, const CliResult& cli,
                              const std::vector<Request>& requests) {
  io::IngestOptions iopt;
  iopt.threads = cfg.threads;
  const engine::EntryPtr entry = tr.run("engine", "load_entry", [&] {
    return engine::load_entry(cfg.input, "", iopt);
  });
  tr.run("engine", "materialize",
         [&] { return entry->schedule().tasks().size(); });
  engine::RenderService service;
  render::RenderOptions options;
  options.threads = cfg.threads;
  options.style.time_window = window;
  const auto cold = tr.run("engine", "render_cold",
                           [&] { return service.render(entry, options, "png"); });
  tr.run("engine", "render_warm",
         [&] { return service.render(entry, options, "png"); });
  if (*cold.bytes != cli.png) {
    throw std::runtime_error(
        "RenderService bytes differ from the CLI library path");
  }
  render::RenderOptions tile_options;
  tile_options.threads = cfg.threads;
  tr.run("engine", "tile_cold",
         [&] { return service.render_tile(entry, 0, -1, 3, tile_options); });
  const auto append = std::find_if(requests.begin(), requests.end(),
                                   [](const Request& r) { return r.method == "POST"; });
  if (append != requests.end()) {
    const auto events = engine::parse_event_lines(append->body);
    tr.run("engine", "append_entry",
           [&] { return engine::append_entry(entry, events); });
    m["engine.append_ms"] = tr.last("append_entry").ms();
  }
  const auto resident = entry->resident();
  m["engine.load_entry_ms"] = tr.last("load_entry").ms();
  m["engine.materialize_ms"] = tr.last("materialize").ms();
  m["engine.render_cold_ms"] = tr.last("render_cold").ms();
  m["engine.render_warm_ms"] = tr.last("render_warm").ms();
  m["engine.tile_cold_ms"] = tr.last("tile_cold").ms();
  m["engine.resident_heap_mb"] =
      static_cast<double>(resident.heap_bytes) / (1 << 20);
  m["engine.resident_mmap_mb"] =
      static_cast<double>(resident.mmap_bytes) / (1 << 20);
  return entry;
}

/// Loads the input itself when it is a snapshot, else a fresh save of it.
void snapshot_phase(Tracer& tr, Metrics& m, const TraceConfig& cfg,
                    const engine::ScheduleEntry& entry) {
  std::string path = cfg.input;
  if (path.size() < 5 || path.compare(path.size() - 5, 5, ".jbin") != 0) {
    path = cfg.scratch + "/trace_entry.jbin";
    tr.run("io", "save_snapshot", [&] {
      io::save_snapshot(entry.arena(), entry.index, path, &entry.edges);
    });
  }
  tr.run("io", "load_snapshot",
         [&] { return io::load_snapshot(path).arena.task_count(); });
  m["io.snapshot_load_ms"] = tr.last("load_snapshot").ms();
}

/// The request sequence through Server::handle (cold, per route), then
/// its reads again warm, in-process and over loopback: the difference of
/// the two medians is the wire overhead.
void serve_phase(Tracer& tr, Metrics& m, const engine::EntryPtr& entry,
                 const std::vector<Request>& requests) {
  serve::Server::Options sopt;
  sopt.threads = 2;
  serve::Server server(sopt);
  std::string id = server.store().put(entry).entry->id;
  std::map<std::string, std::vector<double>> handle_ms;
  std::vector<std::pair<std::string, const Request*>> reads;  // (id, req)
  for (const auto& r : requests) {
    const auto http = to_http(r, id);
    const std::string route = r.route();
    const auto resp = tr.run("serve", "handle_" + route,
                             [&] { return server.handle(http); });
    handle_ms[route].push_back(tr.spans().back().ms());
    if (resp.status >= 300) {
      throw std::runtime_error(route + " answered " +
                               std::to_string(resp.status) + " in-process");
    }
    if (route == "append") {
      id = id_of(resp.body);
    } else {
      reads.emplace_back(id, &r);
    }
  }
  const auto stats = server.renders().stats();

  std::vector<double> warm_handle, warm_wire;
  for (const auto& [rid, r] : reads) {
    const auto http = to_http(*r, rid);
    tr.run("serve", "handle_warm", [&] { return server.handle(http); });
    warm_handle.push_back(tr.spans().back().ms());
  }
  server.start();
  for (const auto& [rid, r] : reads) {
    const int status = tr.run("serve", "loopback_warm", [&] {
      return loopback_get(server.port(), "/schedules/" + rid + "/" + r->tail,
                          r->gzip);
    });
    warm_wire.push_back(tr.spans().back().ms());
    if (status != 200) {
      server.stop();
      throw std::runtime_error("loopback request answered " +
                               std::to_string(status));
    }
  }
  server.stop();

  const double artifact_lookups =
      static_cast<double>(stats.artifact_hits + stats.artifact_misses);
  const double tile_lookups =
      static_cast<double>(stats.tile.hits + stats.tile.misses);
  m["engine.artifact_hits"] = static_cast<double>(stats.artifact_hits);
  m["engine.artifact_lookups"] = artifact_lookups;
  m["engine.artifact_hit_ratio"] =
      artifact_lookups > 0 ? stats.artifact_hits / artifact_lookups : 0;
  m["engine.tile_hits"] = static_cast<double>(stats.tile.hits);
  m["engine.tile_lookups"] = tile_lookups;
  m["engine.tile_hit_ratio"] =
      tile_lookups > 0 ? stats.tile.hits / tile_lookups : 0;
  m["serve.handle_tile_ms"] = median(handle_ms["tile"]);
  m["serve.handle_render_ms"] = median(handle_ms["render"]);
  m["serve.handle_append_ms"] = median(handle_ms["append"]);
  m["serve.wire_overhead_ms"] = median(warm_wire) - median(warm_handle);
  m["serve.rejected_429"] = static_cast<double>(server.counters().rejected_429);
}

}  // namespace

std::string run_trace(const TraceConfig& cfg) {
  const Window window =
      cfg.window.empty() ? Window() : Window(engine::parse_time_window(cfg.window));
  const auto requests = read_requests(cfg.requests);
  Tracer tr;
  Metrics m;
  const CliResult cli = cli_path(tr, m, cfg, window);
  breakdowns(tr, m, cfg, window, cli);
  const engine::EntryPtr entry =
      engine_phase(tr, m, cfg, window, cli, requests);
  snapshot_phase(tr, m, cfg, *entry);
  serve_phase(tr, m, entry, requests);
  io::save_schedule_csv(tr.to_schedule(), cfg.spans_out);

  std::string out = "{";
  for (const auto& [name, value] : m) {
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": " + fixed(value);
  }
  return out + "}";
}

}  // namespace perfbench
