// Dependency-edge rendering (DESIGN.md §4j): the arrows-vs-heat-lane
// switch and layout identity between the EdgeIndex path and the
// brute-force fallback. Export bytes with edges enabled (every exporter x
// kernel x thread count, with and without the index) are pinned by
// test_golden_outputs.

#include <gtest/gtest.h>

#include <algorithm>
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
                        const model::EdgeIndex* index) {
  LayoutHints hints;
  hints.edge_index = index;
  return layout_gantt(s, color::standard_colormap(), style, /*threads=*/1,
                      hints);
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
