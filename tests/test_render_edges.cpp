// Dependency-edge rendering (DESIGN.md §4j): the arrows-vs-heat-lane
// switch and layout identity between the EdgeIndex path and the
// brute-force fallback. Export bytes with edges enabled (every exporter x
// kernel x thread count, with and without the index) are pinned by
// test_golden_outputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "jedule/color/colormap.hpp"
#include "jedule/model/builder.hpp"
#include "jedule/model/edge_index.hpp"
#include "jedule/model/schedule.hpp"
#include "jedule/render/exporter.hpp"
#include "jedule/render/gantt.hpp"
#include "jedule/render/options.hpp"

namespace jedule::render {
namespace {

/// Four-task pipeline across two clusters: a handful of arrows, one of
/// them crossing clusters.
model::Schedule pipeline_schedule() {
  model::Schedule s = model::ScheduleBuilder()
                          .cluster(0, "c0", 8)
                          .cluster(1, "c1", 8)
                          .task("a", "computation", 0.0, 2.0)
                          .on(0, 0, 4)
                          .task("b", "computation", 2.5, 5.0)
                          .on(0, 4, 4)
                          .task("c", "transfer", 5.0, 6.0)
                          .on(1, 0, 2)
                          .task("d", "computation", 6.5, 9.0)
                          .on(1, 2, 4)
                          .build();
  s.add_dependency(0, 1, 1.0);
  s.add_dependency(1, 2, 2.0);
  s.add_dependency(2, 3, 1.0);
  s.add_dependency(0, 3, 0.5);
  s.validate();
  return s;
}

/// Dense random DAG: enough edges per pixel column to trip the heat-lane
/// budget at a narrow width.
model::Schedule dense_schedule(int n, int m, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> start(0.0, 50.0);
  std::uniform_real_distribution<double> dur(0.5, 6.0);
  std::uniform_int_distribution<int> host(0, 12);

  model::ScheduleBuilder b;
  b.cluster(0, "c0", 16).cluster(1, "c1", 16);
  for (int i = 0; i < n; ++i) {
    const double s0 = start(rng);
    b.task(std::to_string(i), i % 2 ? "computation" : "transfer", s0,
           s0 + dur(rng));
    b.on(i % 2, host(rng), 2);
  }
  model::Schedule s = b.build();
  std::uniform_int_distribution<int> pick(0, n - 1);
  int added = 0;
  while (added < m) {
    int a = pick(rng), c = pick(rng);
    if (a == c) continue;
    if (a > c) std::swap(a, c);
    s.add_dependency(static_cast<std::uint32_t>(a),
                     static_cast<std::uint32_t>(c), 1.0);
    ++added;
  }
  s.validate();
  return s;
}

GanttStyle style_for(EdgeMode mode, int width = 480, int height = 320) {
  GanttStyle style;
  style.width = width;
  style.height = height;
  style.edges = mode;
  return style;
}

GanttLayout layout_with(const model::Schedule& s, const GanttStyle& style,
                        const model::EdgeIndex* index, int threads = 1) {
  LayoutHints hints;
  hints.edge_index = index;
  return layout_gantt(s, color::standard_colormap(), style, threads, hints);
}

using ArrowKey = std::tuple<double, double, double, double, bool, bool>;

std::vector<ArrowKey> arrow_keys(const GanttLayout& lay) {
  std::vector<ArrowKey> keys;
  for (const auto& a : lay.edge_arrows) {
    keys.emplace_back(a.x0, a.y0, a.x1, a.y1, a.head, a.critical);
  }
  return keys;
}

void expect_same_edge_layout(const GanttLayout& a, const GanttLayout& b) {
  EXPECT_EQ(arrow_keys(a), arrow_keys(b));
  ASSERT_EQ(a.edge_lanes.size(), b.edge_lanes.size());
  for (std::size_t i = 0; i < a.edge_lanes.size(); ++i) {
    EXPECT_EQ(a.edge_lanes[i].panel_index, b.edge_lanes[i].panel_index);
    EXPECT_DOUBLE_EQ(a.edge_lanes[i].x, b.edge_lanes[i].x);
    EXPECT_DOUBLE_EQ(a.edge_lanes[i].col_w, b.edge_lanes[i].col_w);
    EXPECT_DOUBLE_EQ(a.edge_lanes[i].y, b.edge_lanes[i].y);
    EXPECT_DOUBLE_EQ(a.edge_lanes[i].h, b.edge_lanes[i].h);
    EXPECT_EQ(a.edge_lanes[i].levels, b.edge_lanes[i].levels);
  }
  EXPECT_EQ(a.edge_stats.considered, b.edge_stats.considered);
  EXPECT_EQ(a.edge_stats.arrows, b.edge_stats.arrows);
  EXPECT_EQ(a.edge_stats.critical_arrows, b.edge_stats.critical_arrows);
  EXPECT_EQ(a.edge_stats.heat_panels, b.edge_stats.heat_panels);
}

TEST(RenderEdges, SparseScheduleDrawsArrowsWithCriticalPathFlagged) {
  const auto s = pipeline_schedule();
  const model::EdgeIndex index(s);
  const auto lay = layout_with(s, style_for(EdgeMode::kAuto), &index);
  // b->c and a->d cross clusters, so each is considered in both panels:
  // 1 (a->b) + 2 (b->c) + 1 (c->d) + 2 (a->d) = 6.
  EXPECT_EQ(lay.edge_stats.considered, 6u);
  // An arrow needs both endpoints on rows of the panel's cluster; only
  // a->b (cluster 0) and c->d (cluster 1) qualify, and both lie on the
  // critical path a-b-c-d.
  EXPECT_EQ(lay.edge_stats.arrows, 2u);
  EXPECT_TRUE(lay.edge_lanes.empty());
  EXPECT_EQ(lay.edge_stats.critical_arrows, 2u);
}

TEST(RenderEdges, OffModeAndDepFreeSchedulesDrawNothing) {
  const auto s = pipeline_schedule();
  const model::EdgeIndex index(s);
  const auto lay = layout_with(s, style_for(EdgeMode::kOff), &index);
  EXPECT_TRUE(lay.edge_arrows.empty());
  EXPECT_TRUE(lay.edge_lanes.empty());

  // No dependencies: the default (auto) mode must not change the bytes.
  model::Schedule bare = model::ScheduleBuilder()
                             .cluster(0, "c", 4)
                             .task("t", "computation", 0.0, 1.0)
                             .on(0, 0, 4)
                             .build();
  RenderOptions off;
  off.style = style_for(EdgeMode::kOff);
  RenderOptions def;
  def.style = style_for(EdgeMode::kDefault);
  EXPECT_EQ(render_to_bytes(bare, off, "png"),
            render_to_bytes(bare, def, "png"));
}

TEST(RenderEdges, ForceModeBundlesIntoHeatLanes) {
  const auto s = pipeline_schedule();
  const model::EdgeIndex index(s);
  const auto lay = layout_with(s, style_for(EdgeMode::kForce), &index);
  EXPECT_TRUE(lay.edge_stats.heat_panels > 0);
  EXPECT_FALSE(lay.edge_lanes.empty());
  // The critical path overlays the lanes as arrows even in heat mode.
  EXPECT_EQ(lay.edge_stats.arrows, lay.edge_stats.critical_arrows);
  EXPECT_GT(lay.edge_stats.critical_arrows, 0u);
  for (const auto& lane : lay.edge_lanes) {
    EXPECT_FALSE(lane.levels.empty());
    // Quantization normalizes the densest column to 255.
    EXPECT_EQ(*std::max_element(lane.levels.begin(), lane.levels.end()), 255);
  }
}

TEST(RenderEdges, AutoSwitchesToHeatAboveTheDensityBudget) {
  const auto s = dense_schedule(400, 4000, 5);
  const model::EdgeIndex index(s);
  // 160 px wide at the default budget of 2 arrows per column: 4000 edges
  // can only render as heat lanes.
  const auto lay = layout_with(s, style_for(EdgeMode::kAuto, 160, 200), &index);
  EXPECT_GT(lay.edge_stats.heat_panels, 0u);
  // Wide enough and the same schedule draws individual arrows again.
  GanttStyle wide = style_for(EdgeMode::kAuto, 480, 200);
  wide.edge_density = 1 << 20;
  const auto arrows = layout_with(s, wide, &index);
  EXPECT_EQ(arrows.edge_stats.heat_panels, 0u);
  EXPECT_GT(arrows.edge_stats.arrows, 0u);
}

/// Unit tasks end to end on `clusters` clusters (task i on cluster
/// i % clusters), so every i-1 -> i edge has zero length, plus one edge
/// i-3 -> i per task: with two clusters those cross clusters.
model::Schedule zero_length_schedule(int n, int clusters) {
  model::ScheduleBuilder b;
  for (int c = 0; c < clusters; ++c) b.cluster(c, "c" + std::to_string(c), 8);
  for (int i = 0; i < n; ++i) {
    b.task(std::to_string(i), "computation", i, i + 1.0).on(i % clusters, i % 7, 1);
  }
  model::Schedule s = b.build();
  for (std::uint32_t i = 1; i < static_cast<std::uint32_t>(n); ++i) {
    s.add_dependency(i - 1, i, 1.0);
    if (i >= 3) s.add_dependency(i - 3, i, 1.0);
  }
  s.validate();
  return s;
}

/// Cluster 0 holds a dense unit chain, cluster 1 a sparse one, one edge
/// crosses from 0 to 1, and cluster 2 has a task but no edges.
model::Schedule mixed_density_schedule() {
  model::ScheduleBuilder b;
  b.cluster(0, "dense", 8).cluster(1, "sparse", 8).cluster(2, "idle", 8);
  for (int i = 0; i < 300; ++i) {
    b.task("d" + std::to_string(i), "computation", i, i + 1.0).on(0, i % 8, 1);
  }
  for (int i = 0; i < 10; ++i) {
    b.task("s" + std::to_string(i), "transfer", 300 + 3.0 * i, 301 + 3.0 * i)
        .on(1, i % 8, 1);
  }
  b.task("idle", "computation", 0.0, 310.0).on(2, 0, 8);
  model::Schedule s = b.build();
  for (std::uint32_t i = 1; i < 310; ++i) {
    s.add_dependency(i - 1, i, 1.0);
    if (i < 300 && i >= 2) s.add_dependency(i - 2, i, 1.0);
    if (i < 300 && i >= 3) s.add_dependency(i - 3, i, 1.0);
  }
  s.validate();
  return s;
}

TEST(RenderEdges, IndexAndBruteForceFallbackProduceIdenticalLayouts) {
  for (unsigned seed : {3u, 8u}) {
    const auto s = dense_schedule(200, 500, seed);
    const model::EdgeIndex index(s);
    for (const EdgeMode mode : {EdgeMode::kAuto, EdgeMode::kForce}) {
      for (const int width : {160, 480}) {
        const GanttStyle style = style_for(mode, width, 240);
        const GanttLayout with_index = layout_with(s, style, &index);
        const GanttLayout brute = layout_with(s, style, nullptr);
        expect_same_edge_layout(with_index, brute);
      }
    }
  }
  // Zero-length edges, within one cluster and across two.
  for (const int clusters : {1, 2}) {
    const auto s = zero_length_schedule(120, clusters);
    const model::EdgeIndex index(s);
    for (const EdgeMode mode : {EdgeMode::kAuto, EdgeMode::kForce}) {
      for (const int width : {160, 480}) {
        const GanttStyle style = style_for(mode, width, 240);
        expect_same_edge_layout(layout_with(s, style, &index),
                                layout_with(s, style, nullptr));
      }
    }
  }
  // The arrow budget's edge: one panel shows 236 edges, and the canvas is
  // sized so that they are exactly the budget (arrows) or the budget + 1
  // (a heat lane) at one arrow per pixel column.
  const auto s = zero_length_schedule(120, 1);
  ASSERT_EQ(s.dependencies().size(), 236u);
  const model::EdgeIndex index(s);
  const long long margin =
      480 - std::llround(
                layout_with(s, style_for(EdgeMode::kAuto), nullptr).panels[0].w);
  for (const int over : {0, 1}) {
    GanttStyle style = style_for(
        EdgeMode::kAuto, static_cast<int>(236 - over + margin), 240);
    style.edge_density = 1;
    const GanttLayout brute = layout_with(s, style, nullptr);
    EXPECT_EQ(brute.edge_stats.heat_panels, static_cast<std::size_t>(over));
    EXPECT_EQ(brute.edge_stats.considered, 236u);
    expect_same_edge_layout(layout_with(s, style, &index), brute);
  }
  // Panels that decide differently in one pass over the edges: at this
  // width the dense panel draws the only lane, the sparse one arrows.
  const auto m = mixed_density_schedule();
  const model::EdgeIndex mixed_index(m);
  const GanttStyle style = style_for(EdgeMode::kAuto, 160, 240);
  const GanttLayout brute = layout_with(m, style, nullptr);
  ASSERT_EQ(brute.edge_lanes.size(), 1u);
  EXPECT_EQ(brute.edge_lanes[0].panel_index, 0u);
  EXPECT_EQ(brute.edge_stats.heat_panels, 1u);
  // 299 + 298 + 297 dense edges and the crossing one in panel 0; the
  // crossing one and 9 sparse edges in panel 1.
  EXPECT_EQ(brute.edge_stats.considered, 895u + 10u);
  expect_same_edge_layout(layout_with(m, style, &mixed_index), brute);
}

TEST(RenderEdges, EdgePassSplitOverWorkersMatchesIndex) {
  // ~120k edges, a third of them across the two clusters: enough that
  // the index-free pass splits over up to three workers, and every split
  // gives the layout of the index.
  const auto s = zero_length_schedule(60000, 2);
  const model::EdgeIndex index(s);
  for (const EdgeMode mode : {EdgeMode::kAuto, EdgeMode::kForce}) {
    const GanttStyle style = style_for(mode, 480, 240);
    const GanttLayout want = layout_with(s, style, &index);
    ASSERT_GT(want.edge_stats.heat_panels, 0u);
    for (const int threads : {1, 2, 3, 8}) {
      expect_same_edge_layout(want, layout_with(s, style, nullptr, threads));
    }
  }
}

TEST(RenderEdges, WindowedLayoutsOnlyConsiderVisibleEdges) {
  const auto s = dense_schedule(300, 1000, 11);
  const model::EdgeIndex index(s);
  GanttStyle style = style_for(EdgeMode::kAuto, 480, 240);
  const auto full = layout_with(s, style, &index);
  style.time_window = model::TimeRange{10.0, 12.0};
  const auto windowed = layout_with(s, style, &index);
  EXPECT_LT(windowed.edge_stats.considered, full.edge_stats.considered);
  expect_same_edge_layout(windowed, layout_with(s, style, nullptr));
}

}  // namespace
}  // namespace jedule::render
