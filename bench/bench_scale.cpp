// Scale bench — the paper's Sec. VI claim that "Jedule can handle big data
// sets required to analyze fine-grained task parallel applications ... more
// than 200,000 individual tasks": composite synthesis, layout, raster
// painting, PNG encoding and XML parsing at growing task counts, each with
// a serial vs multi-threaded comparison (outputs must be byte-identical).

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <utility>
#if defined(__GLIBC__)
#include <malloc.h>  // mallinfo2
#endif

#include <filesystem>

#include "bench_report.hpp"
#include "jedule/engine/events.hpp"
#include "jedule/engine/render_service.hpp"
#include "jedule/engine/store.hpp"
#include "jedule/interactive/session.hpp"
#include "jedule/io/ingest.hpp"
#include "jedule/io/jedule_xml.hpp"
#include "jedule/io/snapshot.hpp"
#include "jedule/model/builder.hpp"
#include "jedule/model/composite.hpp"
#include "jedule/model/edge_index.hpp"
#include "jedule/model/task_index.hpp"
#include "jedule/render/export.hpp"
#include "jedule/render/exporter.hpp"
#include "jedule/render/deflate.hpp"
#include "jedule/render/font.hpp"
#include "jedule/render/framebuffer.hpp"
#include "jedule/render/gantt.hpp"
#include "jedule/render/kernels.hpp"
#include "jedule/render/png.hpp"
#include "jedule/render/span.hpp"
#include "jedule/render/tile_cache.hpp"
#include "jedule/util/error.hpp"
#include "jedule/util/parallel.hpp"
#include "jedule/util/rng.hpp"
#include "jedule/util/stopwatch.hpp"

namespace {

using namespace jedule;

constexpr int kBenchThreads = 8;

model::Schedule big_schedule(int tasks) {
  // Fine-grained task-pool style trace: 64 "threads", alternating exec and
  // wait intervals, no overlaps (like Figs. 11-12 at scale).
  util::Rng rng(1);
  model::ScheduleBuilder builder;
  const int threads = 64;
  builder.cluster(0, "smp", threads);
  std::vector<double> cursor(threads, 0.0);
  for (int i = 0; i < tasks; ++i) {
    const int t = i % threads;
    const double len = rng.uniform(0.0001, 0.01);
    builder
        .task("t" + std::to_string(t) + "." + std::to_string(i),
              i % 2 ? "computation" : "waiting", cursor[static_cast<std::size_t>(t)],
              cursor[static_cast<std::size_t>(t)] + len)
        .on(0, t, 1);
    cursor[static_cast<std::size_t>(t)] += len;
  }
  return builder.build();
}

model::Schedule million_schedule(int tasks, int hosts) {
  // Million-task ingest workload: per-host task chains with a full-width
  // barrier task every few thousand tasks — the shape of a fine-grained
  // task-parallel trace on a big partition. Tasks never overlap, so the
  // composite stage sees heavy input but synthesizes nothing.
  util::Rng rng(7);
  model::ScheduleBuilder builder;
  builder.cluster(0, "big", hosts);
  std::vector<double> cursor(static_cast<std::size_t>(hosts), 0.0);
  for (int i = 0; i < tasks; ++i) {
    if (i % 5000 == 4999) {
      const double at = *std::max_element(cursor.begin(), cursor.end());
      const double len = rng.uniform(0.001, 0.01);
      builder.task("barrier." + std::to_string(i), "barrier", at, at + len)
          .on(0, 0, hosts);
      std::fill(cursor.begin(), cursor.end(), at + len);
    } else {
      const int h = i % hosts;
      const double len = rng.uniform(0.0001, 0.01);
      const double at = cursor[static_cast<std::size_t>(h)];
      builder
          .task("t" + std::to_string(h) + "." + std::to_string(i),
                i % 2 ? "computation" : "waiting", at, at + len)
          .on(0, h, 1);
      cursor[static_cast<std::size_t>(h)] = at + len;
    }
  }
  return builder.build();
}

model::Schedule overdraw_schedule(int tasks, int hosts, int depth) {
  // Overdraw-heavy render workload: at any instant ~`depth` tasks cover
  // each host (overlapping tasks on one host are legal — Fig. 3 draws
  // one), so a per-pixel painter writes every box pixel ~depth times
  // while the span rasterizer's occlusion pass writes it once.
  util::Rng rng(13);
  model::ScheduleBuilder builder;
  builder.cluster(0, "dense", hosts);
  const int per_host = tasks / hosts;
  for (int h = 0; h < hosts; ++h) {
    for (int i = 0; i < per_host; ++i) {
      const double start = i;
      const double len = depth + rng.uniform(0.0, 1.0);
      builder
          .task("d" + std::to_string(h) + "." + std::to_string(i),
                i % 2 ? "computation" : "transfer", start, start + len)
          .on(0, h, 1);
    }
  }
  return builder.build();
}

model::Schedule ragged_schedule(int tasks) {
  // Batch-system trace with ragged allocations: 2 clusters x 2048 hosts
  // in 64-host lanes; each task takes a random sub-range of one lane and
  // starts after the lane's previous task, so nothing overlaps and the
  // layout draws exactly one box per task (a 500k-task render's shape).
  constexpr int kHosts = 2048, kLane = 64, kLanes = 2 * kHosts / kLane;
  static const char* const kTypes[] = {"computation", "transfer", "io",
                                       "waiting"};
  util::Rng rng(5);
  model::ScheduleBuilder builder;
  builder.cluster(0, "left", kHosts).cluster(1, "right", kHosts);
  std::vector<double> lane_end(kLanes, 0.0);
  for (int i = 0; i < tasks; ++i) {
    const auto lane = static_cast<int>(rng.uniform_int(0, kLanes - 1));
    const auto width = static_cast<int>(rng.uniform_int(1, kLane));
    const int first = lane % (kHosts / kLane) * kLane +
                      static_cast<int>(rng.uniform_int(0, kLane - width));
    double& cursor = lane_end[static_cast<std::size_t>(lane)];
    const double start = cursor + static_cast<double>(rng.uniform_int(0, 20));
    cursor = start + static_cast<double>(rng.uniform_int(10, 200));
    builder.task("t" + std::to_string(i), kTypes[rng.uniform_int(0, 3)],
                 start, cursor)
        .on(lane / (kHosts / kLane), first, width);
  }
  return builder.build();
}

/// The chain shape of the `.jbin` window workload: single-host tasks
/// chained per host on one 4096-host cluster, cut by a full-width barrier
/// every 5000 tasks; each task depends on its host predecessor (or the
/// last barrier), each barrier on the latest-finishing task before it.
model::Schedule chain_schedule(int tasks) {
  constexpr int kHosts = 4096, kBarrier = 5000;
  static const char* const kTypes[] = {"computation", "transfer", "io"};
  util::Rng rng(17);
  model::ScheduleBuilder builder;
  builder.cluster(0, "cluster-0", kHosts);
  std::vector<double> host_end(kHosts, 0.0);
  std::vector<int> host_last(kHosts, -1);
  int barrier = -1, latest = -1;
  double barrier_end = 0, latest_end = 0;
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < tasks; ++i) {
    if ((i + 1) % kBarrier == 0) {
      const double start =
          latest_end + static_cast<double>(rng.uniform_int(1, 20));
      barrier_end = start + static_cast<double>(rng.uniform_int(5, 50));
      builder.task("t" + std::to_string(i), "sync", start, barrier_end)
          .on(0, 0, kHosts);
      edges.emplace_back(latest >= 0 ? latest : barrier, i);
      barrier = i;
      latest = -1;
      std::fill(host_last.begin(), host_last.end(), -1);
      std::fill(host_end.begin(), host_end.end(), barrier_end);
      continue;
    }
    const auto h = static_cast<std::size_t>(rng.uniform_int(0, kHosts - 1));
    const double start = std::max(host_end[h], barrier_end) +
                         static_cast<double>(rng.uniform_int(0, 30));
    const double end = start + static_cast<double>(rng.uniform_int(10, 400));
    builder.task("t" + std::to_string(i), kTypes[rng.uniform_int(0, 2)], start,
                 end)
        .on(0, static_cast<int>(h), 1);
    edges.emplace_back(host_last[h] >= 0 ? host_last[h] : barrier, i);
    host_end[h] = end;
    host_last[h] = i;
    if (end > latest_end) {
      latest_end = end;
      latest = i;
    }
  }
  model::Schedule s = builder.build();
  for (const auto& [src, dst] : edges) {
    if (src >= 0) {
      s.add_dependency(static_cast<std::uint32_t>(src),
                       static_cast<std::uint32_t>(dst));
    }
  }
  return s;
}

/// The ragged schedule of the full-layout and ingest-tail rows, built once
/// per size.
const model::Schedule& shared_ragged_schedule(int tasks) {
  static std::map<int, model::Schedule> cache;
  auto it = cache.find(tasks);
  if (it == cache.end()) {
    it = cache.emplace(tasks, ragged_schedule(tasks)).first;
  }
  return it->second;
}

/// Memoized schedules for the interactive-frame benches: the 1M-task one is
/// also what million_xml() serializes, so it is built exactly once.
const model::Schedule& frame_schedule(int tasks) {
  static std::map<int, model::Schedule> cache;
  auto it = cache.find(tasks);
  if (it == cache.end()) {
    it = cache
             .emplace(tasks, tasks >= 1000000 ? million_schedule(tasks, 4096)
                                              : big_schedule(tasks))
             .first;
  }
  return it->second;
}

const model::TaskIndex& frame_index(int tasks) {
  static std::map<int, model::TaskIndex> cache;
  auto it = cache.find(tasks);
  if (it == cache.end()) {
    it = cache.emplace(tasks, model::TaskIndex(frame_schedule(tasks))).first;
  }
  return it->second;
}

/// Shared across the report and the BM_Ingest* timings (building the
/// million-task document once keeps the bench startup bounded).
const std::string& million_xml() {
  static const std::string xml = [] {
    return io::write_schedule_xml(frame_schedule(1000000));
  }();
  return xml;
}

/// The 500k-task chain schedule as XML: one <precedence> per task, so the
/// chunked reader's precedence path has rows of its own.
const std::string& chain_xml() {
  static const std::string xml = io::write_schedule_xml(chain_schedule(500000));
  return xml;
}

// ---------------------------------------------------------------------------
// Binary snapshots and O(delta) append (DESIGN.md §4h): shared entries for
// the report and the BM_Snapshot*/BM_AppendDelta rows.
// ---------------------------------------------------------------------------

constexpr int kAppendDelta = 10000;

/// frame_schedule(tasks) minus its last kAppendDelta tasks: both generators
/// are deterministic per task index, so rebuilding with a smaller count
/// reproduces the first N-delta tasks exactly.
const model::Schedule& prefix_schedule(int tasks) {
  static std::map<int, model::Schedule> cache;
  auto it = cache.find(tasks);
  if (it == cache.end()) {
    const int base = tasks - kAppendDelta;
    it = cache
             .emplace(tasks, tasks >= 1000000 ? million_schedule(base, 4096)
                                              : big_schedule(base))
             .first;
  }
  return it->second;
}

const engine::EntryPtr& arena_entry(int tasks) {
  static std::map<int, engine::EntryPtr> cache;
  auto it = cache.find(tasks);
  if (it == cache.end()) {
    it = cache.emplace(tasks, engine::make_entry(frame_schedule(tasks)))
             .first;
  }
  return it->second;
}

const engine::EntryPtr& append_base_entry(int tasks) {
  static std::map<int, engine::EntryPtr> cache;
  auto it = cache.find(tasks);
  if (it == cache.end()) {
    it = cache.emplace(tasks, engine::make_entry(prefix_schedule(tasks)))
             .first;
  }
  return it->second;
}

const std::vector<model::ScheduleArena::Event>& append_events(int tasks) {
  static std::map<int, std::vector<model::ScheduleArena::Event>> cache;
  auto it = cache.find(tasks);
  if (it == cache.end()) {
    it = cache
             .emplace(tasks, engine::events_from_tasks(frame_schedule(tasks),
                                                       static_cast<std::size_t>(
                                                           tasks - kAppendDelta)))
             .first;
  }
  return it->second;
}

std::string bench_snapshot_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

bool same_composites(const std::vector<model::Composite>& a,
                     const std::vector<model::Composite>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].task.id() != b[i].task.id() ||
        a[i].member_ids != b[i].member_ids ||
        a[i].member_types != b[i].member_types) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Interactive frames: pans are answered from cached tiles (warm) and zooms
// from an index-culled layout (cold). Windows are ~0.1% of the makespan —
// the zoom level at which someone actually inspects a fine-grained trace.
// ---------------------------------------------------------------------------

const color::ColorMap& bench_colormap() {
  static const color::ColorMap cmap = color::standard_colormap();
  return cmap;
}

render::GanttStyle frame_style() {
  render::GanttStyle style;
  style.width = 1000;   // 930 pixel columns between the margins
  style.height = 600;
  return style;
}

struct FrameSetup {
  const model::Schedule* schedule;
  const model::TaskIndex* index;
  double begin;   // full-range begin
  double span;    // full-range length
  double len;     // window length (0.1% of the span)
  double step;    // one pixel column in window time units
};

FrameSetup frame_setup(int tasks) {
  const auto& s = frame_schedule(tasks);
  const auto& index = frame_index(tasks);
  const auto range = *s.time_range();
  FrameSetup setup;
  setup.schedule = &s;
  setup.index = &index;
  setup.begin = range.begin;
  setup.span = range.length();
  setup.len = setup.span * 0.001;
  setup.step = setup.len / 930.0;
  return setup;
}

render::TileCache::Request frame_request(const FrameSetup& setup, double t0) {
  render::TileCache::Request req;
  req.tasks = *setup.schedule;
  req.colormap = &bench_colormap();
  req.style = frame_style();
  req.style.time_window = model::TimeRange{t0, t0 + setup.len};
  req.index = setup.index;
  return req;
}

render::RenderOptions bench_options(int threads) {
  render::RenderOptions options;
  options.style.width = 1280;
  options.style.height = 720;
  options.style.show_labels = false;
  options.threads = threads;
  return options;
}

/// Shared by the report and BM_ExportPngCold: 1M tasks, 64 hosts, ~192
/// deep overdraw — the schedule whose export cost is dominated by
/// rasterization rather than layout or PNG encoding.
const model::Schedule& dense_schedule() {
  static const model::Schedule s = overdraw_schedule(1000000, 64, 192);
  return s;
}

render::RenderOptions dense_options() {
  auto options = bench_options(1);
  // Composites off: with ~192-deep overlap everywhere, synthesizing them
  // would swamp the raster stage this workload isolates.
  options.style.show_composites = false;
  return options;
}

// ---------------------------------------------------------------------------
// Dependency-edge workload (DESIGN.md §4j): the 1M-task schedule plus 2M
// precedence edges — every per-host chain link, topped up with random
// forward communication edges between nearby tasks. Shared by the report
// block and the BM_Edge* rows.
// ---------------------------------------------------------------------------

constexpr int kEdgeTasks = 1000000;
constexpr std::size_t kEdgeCount = 2000000;

const model::Schedule& edge_schedule() {
  static const model::Schedule s = [] {
    model::Schedule sched = frame_schedule(kEdgeTasks);
    const int n = static_cast<int>(sched.tasks().size());
    // ~1M chain edges: million_schedule runs host h's tasks at indices
    // h, h+4096, ... so i-4096 precedes i on the same host (edges into
    // or out of the interleaved barriers are legal precedences too).
    for (int i = 4096; i < n; ++i) {
      sched.add_dependency(static_cast<std::uint32_t>(i - 4096),
                           static_cast<std::uint32_t>(i), 1.0);
    }
    util::Rng rng(23);
    while (sched.dependencies().size() < kEdgeCount) {
      const int src =
          static_cast<int>(rng.uniform(0.0, static_cast<double>(n - 2)));
      const int hop = 1 + static_cast<int>(rng.uniform(0.0, 999.0));
      const int dst = std::min(src + hop, n - 1);
      sched.add_dependency(static_cast<std::uint32_t>(src),
                           static_cast<std::uint32_t>(dst), 1.0);
    }
    sched.validate();
    return sched;
  }();
  return s;
}

const model::EdgeIndex& edge_index() {
  static const model::EdgeIndex index(edge_schedule(), kBenchThreads);
  return index;
}

const model::TaskIndex& edge_task_index() {
  static const model::TaskIndex index(edge_schedule());
  return index;
}

FrameSetup edge_frame_setup() {
  const auto& s = edge_schedule();
  const auto range = *s.time_range();
  FrameSetup setup;
  setup.schedule = &s;
  setup.index = &edge_task_index();
  setup.begin = range.begin;
  setup.span = range.length();
  setup.len = setup.span * 0.001;
  setup.step = setup.len / 930.0;
  return setup;
}

render::TileCache::Request edge_frame_request(const FrameSetup& setup,
                                              double t0,
                                              render::EdgeMode mode) {
  auto req = frame_request(setup, t0);
  req.style.edges = mode;
  if (mode != render::EdgeMode::kOff) req.edge_index = &edge_index();
  return req;
}

void report() {
  using namespace jedule::bench;
  report_header("scale", "'Jedule can handle big data sets ... more than "
                         "200,000 individual tasks' (Sec. VI)");
#ifndef NDEBUG
  // Debug timings are not comparable to the committed numbers; refuse to
  // emit rows that could be mistaken for them.
  report_row("library_build_type", "debug");
  report_row("report rows and checks",
             "refused (debug build; rerun with a release configuration)");
  report_footer();
  return;
#endif
  report_row("library_build_type", "release");
  const int kTasks = 250000;
  util::Stopwatch watch;
  const auto schedule = big_schedule(kTasks);
  report_row("build 250k-task schedule", fmt(watch.seconds(), 2) + " s");

  watch.reset();
  const auto composites = model::synthesize_composites(schedule);
  const double composite_serial = watch.seconds();
  report_row("composite sweep (1 thread)",
             fmt(composite_serial, 2) + " s (" +
                 std::to_string(composites.size()) + " overlaps)");
  watch.reset();
  const auto composites_mt =
      model::synthesize_composites(schedule, nullptr, kBenchThreads);
  const double composite_parallel = watch.seconds();
  report_row("composite sweep (" + std::to_string(kBenchThreads) + " threads)",
             fmt(composite_parallel, 2) + " s (" +
                 fmt(composite_serial / composite_parallel, 1) + "x)");
  report_check("parallel composite sweep matches serial",
               same_composites(composites_mt, composites));

  watch.reset();
  const auto fb = render::render_raster(schedule, bench_options(1));
  const double paint_serial = watch.seconds();
  report_row("layout + raster paint (1 thread)",
             fmt(paint_serial, 2) + " s");
  watch.reset();
  const auto fb_mt = render::render_raster(schedule,
                                           bench_options(kBenchThreads));
  const double paint_parallel = watch.seconds();
  report_row("layout + raster paint (" + std::to_string(kBenchThreads) +
                 " threads)",
             fmt(paint_parallel, 2) + " s (" +
                 fmt(paint_serial / paint_parallel, 1) + "x)");
  report_check("banded raster paint matches serial",
               fb_mt.pixels() == fb.pixels());

  watch.reset();
  const auto png = render::encode_png(fb);
  const double png_serial = watch.seconds();
  report_row("PNG encode (1 thread)",
             fmt(png_serial, 2) + " s (" + std::to_string(png.size()) +
                 " bytes)");
  watch.reset();
  const auto png_mt = render::encode_png(fb_mt, kBenchThreads);
  const double png_parallel = watch.seconds();
  report_row("PNG encode (" + std::to_string(kBenchThreads) + " threads)",
             fmt(png_parallel, 2) + " s (" +
                 fmt(png_serial / png_parallel, 1) + "x)");
  report_check("parallel PNG encode is byte-identical", png_mt == png);

  // The codec stages in isolation: per-scanline min-SAD filtering, then
  // the chunked dynamic-Huffman deflate over the filtered payload.
  {
    watch.reset();
    const auto scan = render::filter_scanlines(fb, 1);
    const double filter_s = watch.seconds();
    report_row("PNG filter selection (1 thread)",
               fmt(filter_s * 1e3, 1) + " ms (" +
                   std::to_string(scan.size() / 1024 / 1024) + " MiB)");
    watch.reset();
    const auto dyn_serial =
        render::deflate_compress(scan.data(), scan.size(), 1);
    const double deflate_serial = watch.seconds();
    watch.reset();
    const auto dyn_parallel =
        render::deflate_compress(scan.data(), scan.size(), kBenchThreads);
    const double deflate_parallel = watch.seconds();
    report_row("dynamic deflate on filtered scanlines (1 vs " +
                   std::to_string(kBenchThreads) + " threads)",
               fmt(deflate_serial * 1e3, 1) + " ms vs " +
                   fmt(deflate_parallel * 1e3, 1) + " ms (" +
                   fmt(deflate_serial / deflate_parallel, 1) + "x, " +
                   std::to_string(dyn_serial.size() / 1024) + " KiB)");
    report_check("parallel dynamic deflate is byte-identical",
                 dyn_parallel == dyn_serial);
    if (util::hardware_threads() >= 2) {
      report_check("parallel deflate encode >= 2x serial",
                   deflate_serial / deflate_parallel >= 2.0);
    } else {
      report_row("parallel deflate encode >= 2x serial",
                 "skipped (single-core host)");
    }
  }

  // End-to-end export: the acceptance target for the parallel pipeline is
  // >= 2x on the 250k-task PNG export with 8 threads.
  watch.reset();
  const auto bytes_serial =
      render::render_to_bytes(schedule, bench_options(1), "png");
  const double e2e_serial = watch.seconds();
  report_row("end-to-end PNG export (1 thread)", fmt(e2e_serial, 2) + " s");
  watch.reset();
  const auto bytes_parallel =
      render::render_to_bytes(schedule, bench_options(kBenchThreads), "png");
  const double e2e_parallel = watch.seconds();
  report_row("end-to-end PNG export (" + std::to_string(kBenchThreads) +
                 " threads)",
             fmt(e2e_parallel, 2) + " s (" +
                 fmt(e2e_serial / e2e_parallel, 1) + "x)");
  report_check("parallel export is byte-identical",
               bytes_parallel == bytes_serial);
  if (util::hardware_threads() >= 2) {
    report_check("250k-task PNG export >= 2x with " +
                     std::to_string(kBenchThreads) + " threads",
                 e2e_serial / e2e_parallel >= 2.0);
  } else {
    report_row("250k-task PNG export >= 2x with " +
                   std::to_string(kBenchThreads) + " threads",
               "skipped (single-core host)");
  }

  watch.reset();
  const auto xml = io::write_schedule_xml(schedule);
  report_row("XML write",
             fmt(watch.seconds(), 2) + " s (" +
                 std::to_string(xml.size() / 1024 / 1024) + " MiB)");
  watch.reset();
  const auto back = io::read_schedule_xml(xml);
  report_row("XML parse + validate", fmt(watch.seconds(), 2) + " s");
  report_check("250k tasks round-trip end to end",
               back.tasks().size() == static_cast<std::size_t>(kTasks));

  // Million-task ingest: the full XML -> model -> composite data path
  // through the zero-copy streaming reader.
  {
    watch.reset();
    const auto& mxml = million_xml();
    report_row("build + write 1M-task/4096-host XML",
               fmt(watch.seconds(), 2) + " s (" +
                   std::to_string(mxml.size() / 1024 / 1024) + " MiB)");

    watch.reset();
    const auto via_pull = io::read_schedule_xml(mxml);
    const auto comp_pull = model::synthesize_composites(via_pull);
    report_row("1M ingest, streaming reader + composites",
               fmt(watch.seconds(), 2) + " s");
    report_check("streaming reader round-trips the 1M-task document",
                 io::write_schedule_xml(via_pull) == mxml);
    report_check("1M-task schedule is overlap-free", comp_pull.empty());
  }

  // Parallel chunked ingest (DESIGN.md §4i): the same 1M-task document
  // through the boundary-scan + worker-chunk reader at 1 vs 8 threads,
  // plus a gzip input to show decompression overlapping the parse. The
  // outputs must serialize back to the exact input bytes at every thread
  // count.
  {
    const auto& mxml = million_xml();
    io::IngestOptions opt;
    opt.threads = 1;
    watch.reset();
    io::TextSource serial_src(std::string_view(mxml), nullptr);
    const auto via_serial = io::read_schedule_xml_chunked(
        serial_src, opt, nullptr);
    const double chunked_1t = watch.seconds();
    report_row("1M chunked ingest (1 thread)", fmt(chunked_1t, 2) + " s");

    opt.threads = kBenchThreads;
    io::IngestStats stats;
    watch.reset();
    io::TextSource parallel_src(std::string_view(mxml), nullptr);
    const auto via_parallel =
        io::read_schedule_xml_chunked(parallel_src, opt, &stats);
    const double chunked_8t = watch.seconds();
    report_row("1M chunked ingest (" + std::to_string(kBenchThreads) +
                   " threads)",
               fmt(chunked_8t, 2) + " s (" + fmt(chunked_1t / chunked_8t, 1) +
                   "x, " + std::to_string(stats.chunks) + " chunks)");
    report_check("chunked ingest is byte-identical at every thread count",
                 io::write_schedule_xml(via_serial) == mxml &&
                     io::write_schedule_xml(via_parallel) == mxml);
    if (util::hardware_threads() >= 2) {
      report_check("1M-task chunked ingest >= 3x with " +
                       std::to_string(kBenchThreads) + " threads",
                   chunked_1t / chunked_8t >= 3.0);
    } else {
      report_row("1M-task chunked ingest >= 3x with " +
                     std::to_string(kBenchThreads) + " threads",
                 "skipped (single-core host)");
    }

    const auto zipped = render::gzip_compress(
        reinterpret_cast<const std::uint8_t*>(mxml.data()), mxml.size(),
        kBenchThreads);
    watch.reset();
    io::TextSource gz_src(
        std::string_view(reinterpret_cast<const char*>(zipped.data()),
                         zipped.size()),
        nullptr);
    const auto via_gz = io::read_schedule_xml_chunked(gz_src, opt, nullptr);
    const double gz_s = watch.seconds();
    report_row("1M chunked ingest from gzip (inflate overlapped)",
               fmt(gz_s, 2) + " s (" +
                   std::to_string(zipped.size() / 1024 / 1024) +
                   " MiB compressed)");
    report_check("gzip-pipelined ingest matches the plain parse",
                 io::write_schedule_xml(via_gz) == mxml);
  }

  // The same at 1 and 8 threads on the 500k-task chain document, whose
  // 500k <precedence> records the workers parse and one id table resolves.
  {
    const auto& cxml = chain_xml();
    io::IngestOptions opt;
    opt.threads = 1;
    watch.reset();
    io::TextSource serial_src(std::string_view(cxml), nullptr);
    const auto via_serial =
        io::read_schedule_xml_chunked(serial_src, opt, nullptr);
    const double chain_1t = watch.seconds();
    report_row("500k chain chunked ingest, 500k edges (1 thread)",
               fmt(chain_1t, 2) + " s");

    opt.threads = kBenchThreads;
    io::IngestStats stats;
    watch.reset();
    io::TextSource parallel_src(std::string_view(cxml), nullptr);
    const auto via_parallel =
        io::read_schedule_xml_chunked(parallel_src, opt, &stats);
    const double chain_8t = watch.seconds();
    report_row("500k chain chunked ingest, 500k edges (" +
                   std::to_string(kBenchThreads) + " threads)",
               fmt(chain_8t, 2) + " s (" + fmt(chain_1t / chain_8t, 1) +
                   "x, " + std::to_string(stats.chunks) + " chunks)");
    report_check("chain ingest is byte-identical at every thread count",
                 io::write_schedule_xml(via_serial) == cxml &&
                     io::write_schedule_xml(via_parallel) == cxml);
  }

  // Interactive frames on the 1M-task schedule: warm tile-cache pans at a
  // 0.1%-of-makespan window.
  {
    const auto setup = frame_setup(1000000);
    const auto style = frame_style();

    render::TileCache cache;
    (void)cache.render_frame(frame_request(setup, setup.begin));
    const int kWarmFrames = 50;
    watch.reset();
    for (int i = 1; i <= kWarmFrames; ++i) {
      const double t0 = setup.begin + i * 8 * setup.step;
      const auto fb = cache.render_frame(frame_request(setup, t0));
      if (fb.width() != style.width) throw Error("bad frame");
    }
    const double warm_ms = watch.seconds() * 1000 / kWarmFrames;
    report_row("1M-task frame, warm tile-cache pan", fmt(warm_ms, 1) + " ms");
  }

  // Raster kernels and the cold export of the overdraw-heavy 1M-task
  // schedule, whose cost is dominated by the span rasterizer.
  {
    std::string names;
    for (const auto* k : render::kernels::available()) {
      if (!names.empty()) names += ", ";
      names += k->name;
    }
    report_row("raster kernels",
               names + "; active: " + render::kernels::active().name);

    watch.reset();
    const auto& dense = dense_schedule();
    report_row("build 1M-task overdraw schedule",
               fmt(watch.seconds(), 2) + " s (" +
                   std::to_string(dense.tasks().size()) + " tasks)");
    watch.reset();
    const auto png = render::render_to_bytes(dense, dense_options(), "png");
    report_row("1M-task cold PNG export, span raster",
               fmt(watch.seconds(), 2) + " s (" +
                   std::to_string(png.size() / 1024) + " KiB)");
  }

  // Binary snapshots and O(delta) append at 1M tasks: reopening a trace
  // from its .jbin mapping vs re-ingesting the XML, and growing a live
  // session by 10k events vs the pre-PR alternative — re-ingesting the
  // grown trace (parse + validate + index) from scratch.
  {
    model::Schedule copy = frame_schedule(1000000);
    watch.reset();
    const auto full_entry = engine::make_entry(std::move(copy));
    const double rebuild_s = watch.seconds();
    report_row("1M-task validate+index+hash (full rebuild)",
               fmt(rebuild_s, 2) + " s");

    const std::string path = bench_snapshot_path("bench_scale_report.jbin");
    watch.reset();
    io::save_snapshot(full_entry->arena(), full_entry->index, path);
    const double save_s = watch.seconds();
    report_row("1M-task .jbin snapshot save",
               fmt(save_s, 2) + " s (" +
                   std::to_string(std::filesystem::file_size(path) / 1024 /
                                  1024) +
                   " MiB)");

    watch.reset();
    const auto reopened = engine::load_entry(path);
    const double reopen_s = watch.seconds();
    report_row("1M-task reopen from .jbin (mmap + validate)",
               fmt(reopen_s * 1e3, 1) + " ms");

    watch.reset();
    const auto via_xml = engine::parse_entry(million_xml());
    const double xml_s = watch.seconds();
    report_row("1M-task reopen from XML re-ingest",
               fmt(xml_s, 2) + " s (" + fmt(xml_s / reopen_s, 0) +
                   "x slower)");
    report_check("snapshot reopen is content-identical to XML ingest",
                 *reopened->id == *via_xml->id &&
                     *reopened->id == *full_entry->id);
    report_check("1M-task mmap reopen >= 20x vs XML re-ingest",
                 xml_s / reopen_s >= 20.0);

    const auto& base_entry = append_base_entry(1000000);
    const auto& events = append_events(1000000);
    (void)base_entry->arena();  // a live session's arena is materialized
    watch.reset();
    const auto grown = engine::append_entry(base_entry, events);
    const double entry_append_s = watch.seconds();
    report_row("10k-event append_entry (copy-on-append immutable entry)",
               fmt(entry_append_s * 1e3, 1) + " ms (" +
                   fmt(rebuild_s / entry_append_s, 0) +
                   "x vs in-memory rebuild)");
    report_check("appended entry is content-identical to the full build",
                 *grown->id == *full_entry->id);

    // Steady-state O(delta) path: a live arena that has appended before
    // (column slack, seeded id table), as in a --follow session
    // mid-trace. "Full rebuild" is what a pre-snapshot session had to do
    // to see those 10k events: re-ingest the grown trace end to end
    // (parse + validate + index), timed as xml_s above.
    {
      model::ScheduleArena live(million_schedule(980000, 4096));
      live.validate();
      live.append(
          engine::events_from_tasks(prefix_schedule(1000000), 980000));
      watch.reset();
      live.append(events);
      const model::TaskIndex grown_index(base_entry->index, live, 990000);
      const double append_s = watch.seconds();
      report_row("10k-event in-place append + index extension (live arena)",
                 fmt(append_s * 1e3, 2) + " ms (" +
                     fmt(xml_s / append_s, 0) + "x vs re-ingest, " +
                     fmt(rebuild_s / append_s, 0) + "x vs in-memory rebuild)");
      report_check("in-place append matches the full build's content hash",
                   grown_index.content_hash() == full_entry->content_hash);
      report_check("10k-event append >= 50x vs full rebuild",
                   xml_s / append_s >= 50.0);
    }
    std::filesystem::remove(path);
  }

  // Dependency-edge rendering at 1M tasks / 2M edges (DESIGN.md §4j):
  // a cold windowed frame through the columnar EdgeIndex vs the
  // brute-force scan of every dependency, then the warm tile-cache pan
  // with the edge overlay on vs bar-only. Targets: cold edge frame
  // >= 5x vs brute force; warm pan with edges <= 2x bar-only. Both are
  // algorithmic bounds (O(log n + visible) vs O(m)), so neither is
  // gated on core count.
  {
    watch.reset();
    const auto& es = edge_schedule();
    report_row("build 1M-task/2M-edge schedule",
               fmt(watch.seconds(), 2) + " s (" +
                   std::to_string(es.dependencies().size()) + " edges)");
    watch.reset();
    const auto& eindex = edge_index();
    report_row("2M-edge EdgeIndex build (" + std::to_string(kBenchThreads) +
                   " threads)",
               fmt(watch.seconds(), 2) + " s (" +
                   std::to_string(eindex.heap_bytes() / 1024 / 1024) +
                   " MiB)");

    const auto setup = edge_frame_setup();
    auto style = frame_style();
    style.edges = render::EdgeMode::kAuto;
    const auto time_cold = [&](const model::EdgeIndex* ei) {
      render::LayoutHints hints;
      hints.index = setup.index;
      hints.edge_index = ei;
      hints.assume_validated = true;
      const int kFrames = 5;
      util::Stopwatch w;
      for (int i = 0; i < kFrames; ++i) {
        auto st = style;
        const double t0 = setup.begin + i * 97 * setup.step;
        st.time_window = model::TimeRange{t0, t0 + setup.len};
        const auto lay = render::layout_gantt(*setup.schedule,
                                              bench_colormap(), st, 1, hints);
        if (lay.edge_stats.considered == 0) throw Error("no visible edges");
      }
      return w.seconds() * 1000 / kFrames;
    };
    const double cold_index_ms = time_cold(&eindex);
    const double cold_brute_ms = time_cold(nullptr);
    report_row("cold edge frame, EdgeIndex window query",
               fmt(cold_index_ms, 2) + " ms");
    report_row("cold edge frame, brute-force dependency scan",
               fmt(cold_brute_ms, 2) + " ms (" +
                   fmt(cold_brute_ms / cold_index_ms, 1) + "x slower)");
    report_check("cold 1M-task edge frame >= 5x vs brute-force scan",
                 cold_brute_ms / cold_index_ms >= 5.0);

    const auto pan = [&](render::EdgeMode mode) {
      render::TileCache cache;
      (void)cache.render_frame(edge_frame_request(setup, setup.begin, mode));
      const int kFrames = 30;
      util::Stopwatch w;
      for (int i = 1; i <= kFrames; ++i) {
        const double t0 = setup.begin + i * 8 * setup.step;
        const auto fb = cache.render_frame(edge_frame_request(setup, t0, mode));
        if (fb.width() != style.width) throw Error("bad frame");
      }
      return w.seconds() * 1000 / kFrames;
    };
    const double pan_plain_ms = pan(render::EdgeMode::kOff);
    const double pan_edges_ms = pan(render::EdgeMode::kAuto);
    report_row("1M-task warm pan, bar-only", fmt(pan_plain_ms, 2) + " ms");
    report_row("1M-task warm pan, 2M-edge overlay",
               fmt(pan_edges_ms, 2) + " ms (" +
                   fmt(pan_edges_ms / pan_plain_ms, 2) + "x bar-only)");
    report_check("warm 2M-edge pan <= 2x bar-only",
                 pan_edges_ms <= 2.0 * pan_plain_ms);

    // The exported bytes must not depend on which edge path ran.
    auto options = bench_options(1);
    options.style = style;
    options.style.time_window =
        model::TimeRange{setup.begin + setup.span / 2,
                         setup.begin + setup.span / 2 + setup.len};
    options.task_index = setup.index;
    options.assume_validated = true;
    options.edge_index = &eindex;
    const auto png_index = render::render_to_bytes(es, options, "png");
    options.edge_index = nullptr;
    const auto png_brute = render::render_to_bytes(es, options, "png");
    report_check("edge overlay bytes identical, index vs brute force",
                 png_index == png_brute);
  }

  // `jedule serve` artifact cache on the 250k-task schedule: the first
  // request renders (miss), every identical repeat is served the same
  // immutable byte buffer from the LRU artifact cache (hit).
  {
    engine::RenderService service;
    const auto entry = engine::make_entry(schedule);
    const auto options = bench_options(kBenchThreads);
    watch.reset();
    const auto cold = service.render(entry, options, "png");
    const double cold_s = watch.seconds();
    report_row("250k-task serve render, artifact-cache miss",
               fmt(cold_s, 2) + " s");

    const int kWarm = 100;
    bool identical = true;
    watch.reset();
    for (int i = 0; i < kWarm; ++i) {
      const auto warm = service.render(entry, options, "png");
      identical = identical && warm.cache_hit && *warm.bytes == *cold.bytes;
    }
    const double warm_ms = watch.seconds() * 1000 / kWarm;
    report_row("250k-task serve render, artifact-cache hit",
               fmt(warm_ms, 3) + " ms/req (" +
                   fmt(cold_s * 1000 / warm_ms, 0) + "x)");
    report_check("warm serve renders are byte-identical cache hits",
                 identical);
  }
  report_footer();
}

void BM_Composites(benchmark::State& state) {
  const auto schedule = big_schedule(static_cast<int>(state.range(0)));
  const int threads = static_cast<int>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model::synthesize_composites(schedule, nullptr, threads));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Composites)
    ->Args({10000, 1})->Args({50000, 1})->Args({200000, 1})
    ->Args({10000, kBenchThreads})->Args({50000, kBenchThreads})
    ->Args({200000, kBenchThreads})
    ->Unit(benchmark::kMillisecond);

void BM_LayoutAndPaint(benchmark::State& state) {
  const auto schedule = big_schedule(static_cast<int>(state.range(0)));
  const auto options = bench_options(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(render::render_raster(schedule, options));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LayoutAndPaint)
    ->Args({10000, 1})->Args({50000, 1})->Args({200000, 1})
    ->Args({10000, kBenchThreads})->Args({50000, kBenchThreads})
    ->Args({200000, kBenchThreads})
    ->Unit(benchmark::kMillisecond);

// Heap bytes in use (glibc), for the layout's bytes-per-box counter.
std::size_t heap_in_use() {
#if defined(__GLIBC__)
  const struct mallinfo2 m = mallinfo2();
  return m.uordblks + m.hblkhd;
#else
  return 0;
#endif
}

void BM_LayoutFull(benchmark::State& state) {
  // A full-view layout as `jedule render` runs it: validated entry,
  // precomputed composites, one thread; the layout's destruction is timed
  // too. bytes_per_box is the layout's heap over its box count.
  const model::Schedule& schedule =
      shared_ragged_schedule(static_cast<int>(state.range(0)));
  static const auto composites =
      model::synthesize_composites(schedule, nullptr, kBenchThreads);
  render::LayoutHints hints;
  hints.assume_validated = true;
  hints.composites = &composites;
  const render::GanttStyle style;
  double bytes_per_box = 0;
  for (auto _ : state) {
    const std::size_t before = heap_in_use();
    std::optional<render::GanttLayout> layout =
        render::layout_gantt(schedule, bench_colormap(), style, 1, hints);
    const std::size_t boxes = layout->boxes.size();
    bytes_per_box = static_cast<double>(heap_in_use() - before) /
                    static_cast<double>(std::max<std::size_t>(boxes, 1));
    benchmark::DoNotOptimize(layout->boxes.data());
    layout.reset();
  }
  state.counters["bytes_per_box"] = bytes_per_box;
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LayoutFull)->Arg(500000)->Unit(benchmark::kMillisecond);

// The serial tail of a text ingest on the same ragged shape (DESIGN.md
// "ingest tail"): the merged schedule's validate() and the entry's full
// TaskIndex build, at one thread and at four.
void BM_Validate(benchmark::State& state) {
  const model::Schedule& schedule =
      shared_ragged_schedule(static_cast<int>(state.range(0)));
  const int threads = static_cast<int>(state.range(1));
  for (auto _ : state) schedule.validate(threads);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Validate)
    ->Args({500000, 1})->Args({500000, 4})
    ->Unit(benchmark::kMillisecond);

void BM_TaskIndexBuild(benchmark::State& state) {
  const model::Schedule& schedule =
      shared_ragged_schedule(static_cast<int>(state.range(0)));
  const int threads = static_cast<int>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::TaskIndex(schedule, threads));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TaskIndexBuild)
    ->Args({500000, 1})->Args({500000, 4})
    ->Unit(benchmark::kMillisecond);

void BM_PngEncode(benchmark::State& state) {
  const auto schedule = big_schedule(50000);
  const auto fb = render::render_raster(schedule, bench_options(1));
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(render::encode_png(fb, threads));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          fb.width() * fb.height() * 3);
}
BENCHMARK(BM_PngEncode)->Arg(1)->Arg(kBenchThreads)
    ->Unit(benchmark::kMillisecond);

void BM_PngFilter(benchmark::State& state) {
  const auto schedule = big_schedule(50000);
  const auto fb = render::render_raster(schedule, bench_options(1));
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(render::filter_scanlines(fb, threads));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          fb.width() * fb.height() * 3);
}
BENCHMARK(BM_PngFilter)->Arg(1)->Arg(kBenchThreads)
    ->Unit(benchmark::kMillisecond);

void BM_DeflateDynamic(benchmark::State& state) {
  const auto schedule = big_schedule(50000);
  const auto fb = render::render_raster(schedule, bench_options(1));
  const auto scan = render::filter_scanlines(fb, 1);
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        render::deflate_compress(scan.data(), scan.size(), threads));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(scan.size()));
}
BENCHMARK(BM_DeflateDynamic)->Arg(1)->Arg(kBenchThreads)
    ->Unit(benchmark::kMillisecond);

void BM_XmlParse(benchmark::State& state) {
  const auto xml =
      io::write_schedule_xml(big_schedule(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(io::read_schedule_xml(xml));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(xml.size()));
}
BENCHMARK(BM_XmlParse)->Arg(10000)->Arg(50000)->Unit(benchmark::kMillisecond);

void BM_FramePanWarm(benchmark::State& state) {
  const auto setup = frame_setup(static_cast<int>(state.range(0)));
  render::TileCache cache;
  (void)cache.render_frame(frame_request(setup, setup.begin));
  // Pixel-aligned 8-px pans; compute each origin as anchor + k * step so no
  // floating error accumulates and the cache's pixel grid stays reusable.
  std::int64_t k = 0;
  const std::int64_t wrap =
      static_cast<std::int64_t>((setup.span - setup.len) / setup.step);
  for (auto _ : state) {
    k = (k + 8) % std::max<std::int64_t>(wrap, 1);
    const double t0 = setup.begin + static_cast<double>(k) * setup.step;
    benchmark::DoNotOptimize(cache.render_frame(frame_request(setup, t0)));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  const auto& cs = cache.stats();
  state.counters["tile_hit_rate"] = benchmark::Counter(
      cs.hits + cs.misses
          ? static_cast<double>(cs.hits) /
                static_cast<double>(cs.hits + cs.misses)
          : 0.0);
}
BENCHMARK(BM_FramePanWarm)
    ->Arg(10000)->Arg(200000)->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

void BM_FrameZoomCold(benchmark::State& state) {
  const auto setup = frame_setup(static_cast<int>(state.range(0)));
  render::TileCache cache;
  const double mid = setup.begin + setup.span / 2;
  bool wide = false;
  for (auto _ : state) {
    // Alternating zoom levels: every frame changes the scale, resets the
    // pixel grid and re-rasterizes the visible tiles from the culled layout.
    const double len = wide ? setup.len : setup.len / 2;
    wide = !wide;
    auto req = frame_request(setup, mid);
    req.style.time_window = model::TimeRange{mid, mid + len};
    benchmark::DoNotOptimize(cache.render_frame(req));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FrameZoomCold)
    ->Arg(10000)->Arg(200000)->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

void BM_FrameInspect(benchmark::State& state) {
  const auto setup = frame_setup(static_cast<int>(state.range(0)));
  auto style = frame_style();
  style.time_window =
      model::TimeRange{setup.begin + setup.span / 2,
                       setup.begin + setup.span / 2 + setup.len};
  interactive::Session session(*setup.schedule, bench_colormap(), style);
  (void)session.layout();
  int x = 60;
  for (auto _ : state) {
    x = 60 + (x + 37) % 900;
    benchmark::DoNotOptimize(session.inspect(x, 300));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FrameInspect)
    ->Arg(10000)->Arg(200000)->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

void BM_IngestPull(benchmark::State& state) {
  const auto& xml = million_xml();
  for (auto _ : state) {
    const auto schedule = io::read_schedule_xml(xml);
    benchmark::DoNotOptimize(model::synthesize_composites(schedule));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(xml.size()));
}
BENCHMARK(BM_IngestPull)->Unit(benchmark::kMillisecond);

// The chunked parallel reader on a document; arg = worker threads. The
// 1-thread row is the serial baseline the speedup target measures
// against, and every row parses to the identical schedule.
void BM_IngestParallel(benchmark::State& state, const std::string& xml) {
  io::IngestOptions opt;
  opt.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    io::TextSource src{std::string_view(xml), nullptr};
    benchmark::DoNotOptimize(io::read_schedule_xml_chunked(src, opt, nullptr));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(xml.size()));
}
// The million-task document.
void BM_IngestParallel(benchmark::State& state) {
  BM_IngestParallel(state, million_xml());
}
BENCHMARK(BM_IngestParallel)
    ->Arg(1)->Arg(2)->Arg(8)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()
    ->UseRealTime();
// The 500k-task chain document with its 500k precedences.
void BM_IngestParallelChain(benchmark::State& state) {
  BM_IngestParallel(state, chain_xml());
}
BENCHMARK(BM_IngestParallelChain)
    ->Arg(1)->Arg(2)->Arg(8)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()
    ->UseRealTime();

// Raster rows recorded in BENCH_scale.json (the label names the dispatched
// kernel variant).
void BM_RasterOpaqueFill(benchmark::State& state) {
  render::Framebuffer fb(1280, 720);
  const color::Color c{40, 90, 160, 255};
  for (auto _ : state) {
    fb.fill_rect(0, 0, 1280, 720, c);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1280 * 720 * 4);
  state.SetLabel(render::kernels::active().name);
}
BENCHMARK(BM_RasterOpaqueFill)->Unit(benchmark::kMillisecond);

void BM_RasterAlphaBlend(benchmark::State& state) {
  render::Framebuffer fb(1280, 720);
  const color::Color c{200, 60, 40, 128};
  for (auto _ : state) {
    fb.fill_rect(0, 0, 1280, 720, c);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1280 * 720 * 4);
  state.SetLabel(render::kernels::active().name);
}
BENCHMARK(BM_RasterAlphaBlend)->Unit(benchmark::kMillisecond);

void BM_RasterText(benchmark::State& state) {
  render::Framebuffer fb(400, 600);
  const std::string label = "task t63.999999 (computation)";
  for (auto _ : state) {
    for (int i = 0; i < 60; ++i) {
      render::draw_text(fb, 8, 8 + i * 9, label, color::kBlack, 1);
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 60);
}
BENCHMARK(BM_RasterText)->Unit(benchmark::kMillisecond);

void BM_RasterOverdraw(benchmark::State& state) {
  render::Framebuffer fb(1280, 720);
  for (auto _ : state) {
    render::SpanBatch batch(fb);
    for (int i = 0; i < 256; ++i) {
      batch.add_rect((i * 37) % 800, (i * 23) % 600, 400, 100,
                     color::Color{static_cast<std::uint8_t>(50 + i % 180),
                                  80, 20, 255});
    }
    batch.flush();
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_RasterOverdraw)->Unit(benchmark::kMillisecond);

void BM_ExportPngCold(benchmark::State& state) {
  const auto& schedule = dense_schedule();
  const auto options = dense_options();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        render::render_to_bytes(schedule, options, "png"));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(schedule.tasks().size()));
}
BENCHMARK(BM_ExportPngCold)->Unit(benchmark::kMillisecond);

// `jedule serve` request cost at scale: cold = a fresh RenderService per
// request (artifact-cache miss, the full layout + raster + encode), warm =
// repeats against a pre-warmed service (hit, a lookup plus a buffer
// handout). The gap between the two rows is what the artifact cache buys
// a busy server.
const engine::EntryPtr& serve_entry(int tasks) {
  static std::map<int, engine::EntryPtr> cache;
  auto it = cache.find(tasks);
  if (it == cache.end()) {
    it = cache.emplace(tasks, engine::make_entry(big_schedule(tasks))).first;
  }
  return it->second;
}

void BM_ServeRenderCold(benchmark::State& state) {
  const auto& entry = serve_entry(static_cast<int>(state.range(0)));
  const auto options = bench_options(kBenchThreads);
  for (auto _ : state) {
    engine::RenderService service;
    benchmark::DoNotOptimize(service.render(entry, options, "png"));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetLabel("artifact-cache miss");
}
BENCHMARK(BM_ServeRenderCold)
    ->Arg(200000)->Arg(1000000)->Unit(benchmark::kMillisecond);

void BM_ServeRenderWarm(benchmark::State& state) {
  const auto& entry = serve_entry(static_cast<int>(state.range(0)));
  const auto options = bench_options(kBenchThreads);
  engine::RenderService service;
  (void)service.render(entry, options, "png");  // prime the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.render(entry, options, "png"));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetLabel("artifact-cache hit");
}
BENCHMARK(BM_ServeRenderWarm)
    ->Arg(200000)->Arg(1000000)->Unit(benchmark::kMillisecond);

// Snapshot persistence and the O(delta) append, the rows behind the
// DESIGN.md §4h acceptance numbers: save serializes the columns with their
// CRCs, load is an mmap plus a columnar validation pass (no per-task
// objects), append grows a content-addressed entry by kAppendDelta events.
void BM_SnapshotSave(benchmark::State& state) {
  const auto& entry = arena_entry(static_cast<int>(state.range(0)));
  const std::string path = bench_snapshot_path("bench_scale_save.jbin");
  for (auto _ : state) {
    io::save_snapshot(entry->arena(), entry->index, path);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(std::filesystem::file_size(path)));
  std::filesystem::remove(path);
}
BENCHMARK(BM_SnapshotSave)
    ->Arg(200000)->Arg(1000000)->Unit(benchmark::kMillisecond);

void BM_SnapshotLoad(benchmark::State& state) {
  const auto& entry = arena_entry(static_cast<int>(state.range(0)));
  const std::string path = bench_snapshot_path("bench_scale_load.jbin");
  io::save_snapshot(entry->arena(), entry->index, path);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine::load_entry(path));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(std::filesystem::file_size(path)));
  std::filesystem::remove(path);
}
BENCHMARK(BM_SnapshotLoad)
    ->Arg(200000)->Arg(1000000)->Unit(benchmark::kMillisecond);

void BM_AppendDelta(benchmark::State& state) {
  const auto& base = append_base_entry(static_cast<int>(state.range(0)));
  const auto& events = append_events(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine::append_entry(base, events));
  }
  state.SetItemsProcessed(state.iterations() * kAppendDelta);
}
BENCHMARK(BM_AppendDelta)
    ->Arg(200000)->Arg(1000000)->Unit(benchmark::kMillisecond);

// A `.jbin` window render end to end, as `jedule render FILE.jbin
// --window` runs it: the snapshot load, a 5% window PNG through the
// RenderService (read from the arena columns), and the entry teardown.
void BM_SnapshotWindow(benchmark::State& state) {
  const std::string path = bench_snapshot_path("bench_scale_window.jbin");
  model::TimeRange window;
  {
    const auto entry = engine::make_entry(
        chain_schedule(static_cast<int>(state.range(0))));
    io::save_snapshot(entry->arena(), entry->index, path, &entry->edges);
    const model::TimeRange full = entry->full_range;
    window = {full.begin + full.length() * 0.40,
              full.begin + full.length() * 0.45};
  }
  auto options = bench_options(kBenchThreads);
  options.style.time_window = window;
  for (auto _ : state) {
    const auto entry = engine::load_entry(path);
    benchmark::DoNotOptimize(
        engine::RenderService().render(entry, options, "png"));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  std::filesystem::remove(path);
}
BENCHMARK(BM_SnapshotWindow)->Arg(500000)->Unit(benchmark::kMillisecond);

// Dependency-edge rows recorded in BENCH_scale.json (DESIGN.md §4j), all
// on the 1M-task/2M-edge schedule. Warm: tile-cache pans with the edge
// overlay on vs bar-only (arg 1/0). Cold: a windowed layout answering
// the edge pass from the EdgeIndex vs the brute-force scan of all 2M
// dependencies (arg 1/0).
void BM_EdgeFrameWarm(benchmark::State& state) {
  const bool edges = state.range(0) != 0;
  const auto mode = edges ? render::EdgeMode::kAuto : render::EdgeMode::kOff;
  const auto setup = edge_frame_setup();
  render::TileCache cache;
  (void)cache.render_frame(edge_frame_request(setup, setup.begin, mode));
  std::int64_t k = 0;
  const std::int64_t wrap =
      static_cast<std::int64_t>((setup.span - setup.len) / setup.step);
  for (auto _ : state) {
    k = (k + 8) % std::max<std::int64_t>(wrap, 1);
    const double t0 = setup.begin + static_cast<double>(k) * setup.step;
    benchmark::DoNotOptimize(
        cache.render_frame(edge_frame_request(setup, t0, mode)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kEdgeCount));
  state.SetLabel(edges ? "2M-edge overlay" : "bar-only");
}
BENCHMARK(BM_EdgeFrameWarm)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_EdgeFrameCold(benchmark::State& state) {
  const bool use_index = state.range(0) != 0;
  const auto setup = edge_frame_setup();
  render::LayoutHints hints;
  hints.index = setup.index;
  hints.edge_index = use_index ? &edge_index() : nullptr;
  hints.assume_validated = true;
  auto style = frame_style();
  style.edges = render::EdgeMode::kAuto;
  std::int64_t k = 0;
  const std::int64_t wrap =
      static_cast<std::int64_t>((setup.span - setup.len) / setup.step);
  for (auto _ : state) {
    k = (k + 97) % std::max<std::int64_t>(wrap, 1);
    const double t0 = setup.begin + static_cast<double>(k) * setup.step;
    style.time_window = model::TimeRange{t0, t0 + setup.len};
    benchmark::DoNotOptimize(render::layout_gantt(
        *setup.schedule, bench_colormap(), style, 1, hints));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kEdgeCount));
  state.SetLabel(use_index ? "EdgeIndex query" : "brute-force scan");
}
BENCHMARK(BM_EdgeFrameCold)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

JEDULE_BENCH_MAIN(report)
