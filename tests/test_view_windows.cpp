// Viewport culling, LOD and degenerate-window behavior:
//  - the culled layout (hints.index + time window) paints byte-identically
//    to the full layout, composites included;
//  - LodMode::kDefault stays off on the export path, engages only past the
//    density threshold (or kForce) on the interactive path;
//  - Session view operations clamp degenerate input (zero/denormal zoom,
//    pans past the bounds, reversed zoom rectangles) instead of producing
//    NaN geometry or throwing;
//  - index-based Session::inspect answers exactly like hit_test on a full
//    layout.

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>

#include "jedule/color/colormap.hpp"
#include "jedule/interactive/session.hpp"
#include "jedule/model/builder.hpp"
#include "jedule/model/task_index.hpp"
#include "jedule/render/framebuffer.hpp"
#include "jedule/render/gantt.hpp"
#include "jedule/render/raster_canvas.hpp"
#include "jedule/util/error.hpp"

namespace jedule {
namespace {

using interactive::Session;
using model::Schedule;
using model::ScheduleBuilder;
using model::TaskIndex;
using render::Framebuffer;
using render::GanttStyle;
using render::LodMode;

Schedule overlap_schedule(int n = 250, unsigned seed = 17) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> start(0.0, 90.0);
  std::uniform_real_distribution<double> dur(1.0, 15.0);
  std::uniform_int_distribution<int> host(0, 10);
  std::uniform_int_distribution<int> span(1, 5);
  ScheduleBuilder b;
  b.cluster(0, "c0", 16).cluster(1, "c1", 16);  // host + span <= 15
  for (int i = 0; i < n; ++i) {
    const double s = start(rng);
    b.task(std::to_string(i), i % 3 ? "computation" : "transfer", s,
           s + dur(rng));
    b.on(i % 2, host(rng), span(rng));
  }
  return b.build();
}

Framebuffer render_layout(const Schedule& s, const GanttStyle& style,
                          const TaskIndex* index) {
  render::LayoutHints hints;
  hints.index = index;
  const auto layout =
      render::layout_gantt(s, color::standard_colormap(), style, 1, hints);
  Framebuffer fb(style.width, style.height);
  render::RasterCanvas canvas(fb);
  render::paint_gantt(layout, canvas, style);
  return fb;
}

TEST(ViewportCulling, CulledRenderIsByteIdenticalToFull) {
  const Schedule s = overlap_schedule();
  const TaskIndex index(s);
  GanttStyle style;
  style.width = 900;
  style.height = 500;
  for (auto [t0, t1] : {std::pair<double, double>{10, 40},
                        {0, 100},
                        {37.5, 38.5},
                        {95, 120}}) {
    style.time_window = model::TimeRange{t0, t1};
    const Framebuffer culled = render_layout(s, style, &index);
    const Framebuffer full = render_layout(s, style, nullptr);
    EXPECT_EQ(culled, full) << "window [" << t0 << ", " << t1 << "]";
  }
}

TEST(ViewportCulling, CulledLayoutIsSmallerAndMarked) {
  const Schedule s = overlap_schedule();
  const TaskIndex index(s);
  GanttStyle style;
  style.time_window = model::TimeRange{37.5, 38.5};
  render::LayoutHints hints;
  hints.index = &index;
  const auto culled =
      render::layout_gantt(s, color::standard_colormap(), style, 1, hints);
  const auto full =
      render::layout_gantt(s, color::standard_colormap(), style, 1, {});
  EXPECT_TRUE(culled.culled);
  EXPECT_FALSE(full.culled);
  EXPECT_LT(culled.tasks_visited, full.tasks_visited);
}

TEST(ViewportCulling, BoxesIndexTheScheduleTasks) {
  // The culled layout visits only the window's candidates, yet its boxes
  // carry schedule indices — the same boxes, in the same order, as the
  // full layout's.
  const Schedule s = overlap_schedule();
  const TaskIndex index(s);
  GanttStyle style;
  style.time_window = model::TimeRange{30, 45};
  render::LayoutHints hints;
  hints.index = &index;
  const auto culled =
      render::layout_gantt(s, color::standard_colormap(), style, 1, hints);
  const auto full =
      render::layout_gantt(s, color::standard_colormap(), style, 1, {});
  std::vector<std::uint32_t> culled_tasks, full_tasks;
  for (const auto& b : culled.boxes) {
    if (b.composite) continue;
    culled_tasks.push_back(b.task_index);
    const model::Task& t = s.tasks()[b.task_index];
    EXPECT_LE(t.start_time(), 45);
    EXPECT_GE(t.end_time(), 30);
    EXPECT_EQ(culled.label(b), t.id());
  }
  for (const auto& b : full.boxes) {
    if (!b.composite) full_tasks.push_back(b.task_index);
  }
  EXPECT_FALSE(culled_tasks.empty());
  EXPECT_EQ(culled_tasks, full_tasks);
}

TEST(Lod, DefaultModeStaysOffOnTheExportPath) {
  // Dense enough that kAuto would engage: if kDefault leaked to kAuto on
  // exports, the bytes would change.
  const Schedule s = overlap_schedule(3000, 5);
  const TaskIndex index(s);
  GanttStyle style;
  style.width = 320;  // ~250 pixel columns for ~3000 entries
  style.height = 400;
  style.time_window = model::TimeRange{0, 105};
  GanttStyle off = style;
  off.lod = LodMode::kOff;
  EXPECT_EQ(render_layout(s, style, &index), render_layout(s, off, &index));
}

TEST(Lod, AutoEngagesOnlyPastTheDensityThreshold) {
  const auto cmap = color::standard_colormap();
  render::LayoutHints hints;
  hints.interactive = true;  // kDefault -> kAuto

  // Sparse: a handful of tasks never collapse.
  const Schedule sparse = overlap_schedule(20, 2);
  GanttStyle style;
  style.width = 320;
  style.height = 400;
  auto lay = render::layout_gantt(sparse, cmap, style, 1, hints);
  for (auto v : lay.panel_lod) EXPECT_EQ(v, 0);

  // Dense: thousands of entries over ~250 columns exceed lod_density.
  const Schedule dense = overlap_schedule(3000, 5);
  lay = render::layout_gantt(dense, cmap, style, 1, hints);
  bool any_lod = false;
  for (auto v : lay.panel_lod) any_lod = any_lod || v != 0;
  EXPECT_TRUE(any_lod);
  bool any_bin = false;
  for (const auto& b : lay.boxes) any_bin = any_bin || b.lod_bin;
  EXPECT_TRUE(any_bin);
}

TEST(Lod, ForceBinsEvenSparseSchedules) {
  GanttStyle style;
  style.lod = LodMode::kForce;
  const Schedule s = overlap_schedule(20, 2);
  const auto lay =
      render::layout_gantt(s, color::standard_colormap(), style, 1, {});
  for (auto v : lay.panel_lod) EXPECT_EQ(v, 1);
  bool any_exact = false;
  for (const auto& b : lay.boxes) any_exact = any_exact || !b.lod_bin;
  EXPECT_FALSE(any_exact);
  // Bins are transparent to hit_test.
  for (const auto& b : lay.boxes) {
    EXPECT_EQ(render::hit_test(lay, b.x + b.w / 2, b.y + b.h / 2), nullptr);
  }
}

Session make_session(int tasks = 60) {
  GanttStyle style;
  style.width = 800;
  style.height = 480;
  return Session(overlap_schedule(tasks, 9), color::standard_colormap(),
                 style);
}

bool window_is_sane(const Session& s) {
  if (!s.style().time_window) return false;
  const auto w = *s.style().time_window;
  return std::isfinite(w.begin) && std::isfinite(w.end) && w.length() > 0;
}

TEST(DegenerateWindows, ExtremeZoomFactorsClampInsteadOfCollapsing) {
  Session s = make_session();
  s.zoom(1e308);  // denormal-length window would divide to ~0
  EXPECT_TRUE(window_is_sane(s));
  for (int i = 0; i < 50; ++i) s.zoom(1e6);
  EXPECT_TRUE(window_is_sane(s));
  for (int i = 0; i < 50; ++i) s.zoom(1e-6);  // zoom out just as far
  EXPECT_TRUE(window_is_sane(s));
  s.zoom(std::numeric_limits<double>::denorm_min());
  EXPECT_TRUE(window_is_sane(s));
  s.zoom(std::numeric_limits<double>::infinity());
  EXPECT_TRUE(window_is_sane(s));
  // The contract from the original API is kept: non-positive throws.
  EXPECT_THROW(s.zoom(0.0), ArgumentError);
  EXPECT_THROW(s.zoom(-3.0), ArgumentError);
  EXPECT_THROW(s.zoom(std::nan("")), ArgumentError);
}

TEST(DegenerateWindows, PanPastTheBoundsSlidesAlongThem) {
  Session s = make_session();
  s.zoom_to_time(10, 20);
  s.pan(1e9);
  EXPECT_TRUE(window_is_sane(s));
  // The window still touches the schedule's range (to rounding: the clamp
  // computes begin = range.begin - len, and begin + len can land one ulp
  // shy of range.begin).
  const auto range = *s.schedule().time_range();
  const double tol = 1e-9 * range.length();
  EXPECT_LE(s.style().time_window->begin, range.end + tol);
  s.pan(-1e9);
  EXPECT_TRUE(window_is_sane(s));
  EXPECT_GE(s.style().time_window->end, range.begin - tol);
  s.pan(1e308);  // begin+dt would overflow to +inf
  EXPECT_TRUE(window_is_sane(s));
  EXPECT_THROW(s.pan(std::nan("")), ArgumentError);
}

TEST(DegenerateWindows, ZoomToPixelsClampsReversedAndOffPanelSelections) {
  Session s = make_session();
  const auto panel = s.layout().panels.front();
  // Reversed rectangle: swapped, not thrown.
  s.zoom_to_pixels(panel.x + panel.w * 0.75, panel.x + panel.w * 0.25);
  EXPECT_TRUE(window_is_sane(s));
  const auto w1 = *s.style().time_window;
  EXPECT_GT(w1.length(), 0);
  // Both pixels off-panel on the same side: empty selection, minimal span.
  s.reset_view();
  s.zoom_to_pixels(-500, -400);
  EXPECT_TRUE(window_is_sane(s));
  // Same pixel twice.
  s.reset_view();
  s.zoom_to_pixels(panel.x + 10, panel.x + 10);
  EXPECT_TRUE(window_is_sane(s));
  EXPECT_THROW(s.zoom_to_pixels(std::nan(""), 10), ArgumentError);
}

TEST(DegenerateWindows, ZoomToTimeSwapsAndExpands) {
  Session s = make_session();
  s.zoom_to_time(40, 15);  // reversed: swaps
  EXPECT_DOUBLE_EQ(s.style().time_window->begin, 15);
  EXPECT_DOUBLE_EQ(s.style().time_window->end, 40);
  s.zoom_to_time(30, 30);  // empty: expands to a minimal span
  EXPECT_TRUE(window_is_sane(s));
  EXPECT_THROW(s.zoom_to_time(0, std::numeric_limits<double>::infinity()),
               ArgumentError);
}

TEST(DegenerateWindows, WindowCommandEchoesTheClampedResult) {
  Session s = make_session();
  const std::string out = s.execute("window 40 15");
  EXPECT_EQ(out, "window [15.000, 40.000]");
  // Frames render fine on every degenerate view above.
  s.execute("window 30 30");
  const auto& fb = s.frame();
  EXPECT_EQ(fb.width(), 800);
  EXPECT_EQ(fb.height(), 480);
}

TEST(InspectIndexed, MatchesHitTestOnTheFullLayout) {
  GanttStyle style;
  style.width = 800;
  style.height = 480;
  style.lod = LodMode::kOff;
  style.time_window = model::TimeRange{20, 60};
  const Schedule schedule = overlap_schedule(120, 4);
  Session session(schedule, color::standard_colormap(), style);

  // Reference: hit_test over the full (uncull ed, unindexed) layout.
  const auto full =
      render::layout_gantt(schedule, color::standard_colormap(), style, 1, {});
  int hits = 0;
  for (int x = 0; x < style.width; x += 7) {
    for (int y = 0; y < style.height; y += 11) {
      const auto* box = render::hit_test(full, x, y);
      const std::string got = session.inspect(x, y);
      if (box == nullptr) {
        EXPECT_EQ(got.rfind("no task at", 0), 0u) << "(" << x << "," << y << ")";
      } else {
        ++hits;
        const std::string want =
            "task " + std::string(full.label(*box)) + ":";
        EXPECT_EQ(got.rfind(want, 0), 0u)
            << "(" << x << "," << y << ") got: " << got;
      }
    }
  }
  EXPECT_GT(hits, 50);  // the sample grid actually covered tasks
}

TEST(InspectIndexed, ResolvesTasksUnderLodBins) {
  // With kForce there are no exact boxes, yet inspect still answers via
  // the index's point query.
  GanttStyle style;
  style.width = 800;
  style.height = 480;
  style.lod = LodMode::kForce;
  const Schedule schedule = overlap_schedule(120, 4);
  Session session(schedule, color::standard_colormap(), style);
  int found = 0;
  for (int x = 60; x < 780; x += 24) {
    for (int y = 40; y < 460; y += 24) {
      if (session.inspect(x, y).rfind("task ", 0) == 0) ++found;
    }
  }
  EXPECT_GT(found, 0);
}

}  // namespace
}  // namespace jedule
