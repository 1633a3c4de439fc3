#include "jedule/render/tile_cache.hpp"

#include <gtest/gtest.h>

#include <random>
#include <thread>
#include <vector>

#include "jedule/color/colormap.hpp"
#include "jedule/model/builder.hpp"
#include "jedule/model/task_index.hpp"

namespace jedule::render {
namespace {

// Style geometry note: with width=1000 the panels span x in [56, 986), so
// the pixel grid has exactly 930 columns. A window of length 930 makes
// 1 pixel == 1 time unit, so pans by whole numbers land on pixel columns
// and must be pure cache hits.
constexpr double kCols = 930.0;

model::Schedule demo_schedule(int n = 200, unsigned seed = 42) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> start(0.0, 2 * kCols);
  std::uniform_real_distribution<double> dur(5.0, 120.0);
  std::uniform_int_distribution<int> host(0, 6);
  std::uniform_int_distribution<int> span(1, 2);
  model::ScheduleBuilder b;
  b.cluster(0, "c0", 8);
  for (int i = 0; i < n; ++i) {
    const double s = start(rng);
    b.task(std::to_string(i), i % 2 ? "computation" : "transfer", s,
           s + dur(rng));
    b.on(0, host(rng), span(rng));
  }
  return b.build();
}

GanttStyle base_style() {
  GanttStyle style;
  style.width = 1000;
  style.height = 400;
  return style;
}

TileCache::Request request(const model::Schedule& s,
                           const color::ColorMap& cmap,
                           const model::TaskIndex& index,
                           const GanttStyle& style, double t0, double t1) {
  TileCache::Request req;
  req.tasks = s;
  req.colormap = &cmap;
  req.style = style;
  req.style.time_window = model::TimeRange{t0, t1};
  req.index = &index;
  return req;
}

TEST(TileCache, ColdFrameMissesThenRepeatHits) {
  const auto s = demo_schedule();
  const auto cmap = color::standard_colormap();
  const model::TaskIndex index(s);
  TileCache cache;
  const auto f1 =
      cache.render_frame(request(s, cmap, index, base_style(), 0, kCols));
  EXPECT_GT(cache.last_frame().tiles_missed, 0u);
  EXPECT_EQ(cache.last_frame().tiles_hit, 0u);
  const auto f2 =
      cache.render_frame(request(s, cmap, index, base_style(), 0, kCols));
  EXPECT_EQ(cache.last_frame().tiles_missed, 0u);
  EXPECT_EQ(cache.last_frame().tiles_hit, cache.last_frame().tiles_total);
  EXPECT_EQ(f1, f2);
}

TEST(TileCache, PixelAlignedPanReusesTilesAndMatchesColdRender) {
  const auto s = demo_schedule();
  const auto cmap = color::standard_colormap();
  const model::TaskIndex index(s);
  TileCache cache;
  (void)cache.render_frame(request(s, cmap, index, base_style(), 0, kCols));

  // Pan right by 96 px: interior tiles stay valid, only the exposed strip
  // re-rasterizes.
  const auto warm =
      cache.render_frame(request(s, cmap, index, base_style(), 96, 96 + kCols));
  EXPECT_GT(cache.last_frame().tiles_hit, 0u);
  EXPECT_LT(cache.last_frame().tiles_missed, cache.last_frame().tiles_total);

  // Byte-identity: clear() drops tiles but keeps the pixel grid, so the
  // re-render is a cold frame of the *same* grid.
  cache.clear();
  const auto cold =
      cache.render_frame(request(s, cmap, index, base_style(), 96, 96 + kCols));
  EXPECT_EQ(cache.last_frame().tiles_hit, 0u);
  EXPECT_EQ(warm, cold);
}

TEST(TileCache, ManySmallPansStayByteIdentical) {
  const auto s = demo_schedule();
  const auto cmap = color::standard_colormap();
  const model::TaskIndex index(s);
  TileCache cache;
  double t0 = 0;
  (void)cache.render_frame(request(s, cmap, index, base_style(), t0, t0 + kCols));
  for (int step = 0; step < 8; ++step) {
    t0 += 17;  // deliberately not a multiple of the tile width
    const auto warm =
        cache.render_frame(request(s, cmap, index, base_style(), t0, t0 + kCols));
    TileCache fresh;
    const auto ref_warmup =
        fresh.render_frame(request(s, cmap, index, base_style(), 0, kCols));
    (void)ref_warmup;  // anchor the fresh cache's grid at the same origin
    const auto ref =
        fresh.render_frame(request(s, cmap, index, base_style(), t0, t0 + kCols));
    ASSERT_EQ(warm, ref) << "pan step " << step;
  }
}

TEST(TileCache, ZoomResetsGridAndStillMatchesColdRender) {
  const auto s = demo_schedule();
  const auto cmap = color::standard_colormap();
  const model::TaskIndex index(s);
  TileCache cache;
  (void)cache.render_frame(request(s, cmap, index, base_style(), 0, kCols));
  const auto zoomed =
      cache.render_frame(request(s, cmap, index, base_style(), 0, kCols / 2));
  EXPECT_GT(cache.last_frame().invalidations, 0u);
  EXPECT_EQ(cache.last_frame().tiles_hit, 0u);

  cache.clear();
  const auto cold =
      cache.render_frame(request(s, cmap, index, base_style(), 0, kCols / 2));
  EXPECT_EQ(zoomed, cold);
}

TEST(TileCache, ContentChangeInvalidates) {
  const auto a = demo_schedule(100, 1);
  const auto b = demo_schedule(100, 2);
  const auto cmap = color::standard_colormap();
  const model::TaskIndex ia(a), ib(b);
  TileCache cache;
  (void)cache.render_frame(request(a, cmap, ia, base_style(), 0, kCols));
  (void)cache.render_frame(request(b, cmap, ib, base_style(), 0, kCols));
  EXPECT_GT(cache.last_frame().invalidations, 0u);
  EXPECT_EQ(cache.last_frame().tiles_hit, 0u);
}

TEST(TileCache, StyleChangeInvalidates) {
  const auto s = demo_schedule();
  const auto cmap = color::standard_colormap();
  const model::TaskIndex index(s);
  TileCache cache;
  (void)cache.render_frame(request(s, cmap, index, base_style(), 0, kCols));
  auto style = base_style();
  style.show_grid = false;
  (void)cache.render_frame(request(s, cmap, index, style, 0, kCols));
  EXPECT_EQ(cache.last_frame().tiles_hit, 0u);
}

TEST(TileCache, LruEvictionIsBoundedAndCounted) {
  const auto s = demo_schedule();
  const auto cmap = color::standard_colormap();
  const model::TaskIndex index(s);
  TileCache::Options opt;
  opt.tile_width = 128;
  opt.max_tiles = 4;  // a 930-px frame needs 8-9 tiles
  TileCache cache(opt);
  double t0 = 0;
  for (int i = 0; i < 6; ++i) {
    (void)cache.render_frame(request(s, cmap, index, base_style(), t0, t0 + kCols));
    t0 += 256;
  }
  EXPECT_GT(cache.stats().evictions, 0u);
  // Never below what a single frame needs, never unboundedly above it.
  EXPECT_LE(cache.tile_count(), cache.last_frame().tiles_total);
}

TEST(TileCache, HatchedCompositesBypassTheCache) {
  const auto s = demo_schedule();
  const auto cmap = color::standard_colormap();
  const model::TaskIndex index(s);
  TileCache cache;
  auto style = base_style();
  style.hatch_composites = true;
  (void)cache.render_frame(request(s, cmap, index, style, 0, kCols));
  EXPECT_FALSE(cache.last_frame().cached);
  EXPECT_EQ(cache.tile_count(), 0u);
}

TEST(TileCache, ConcurrentCachesShareOneIndex) {
  // The index is immutable and shared read-only; each thread owns its
  // cache. Run under -L tsan to prove the sharing is race-free.
  const auto s = demo_schedule(400, 3);
  const auto cmap = color::standard_colormap();
  const model::TaskIndex index(s);
  std::vector<std::thread> workers;
  std::vector<int> ok(4, 0);
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&, w] {
      TileCache::Options opt;
      opt.threads = 2;
      TileCache cache(opt);
      double t0 = 40.0 * w;
      for (int i = 0; i < 5; ++i) {
        const auto fb =
            cache.render_frame(request(s, cmap, index, base_style(), t0, t0 + kCols));
        if (fb.width() == 1000) ++ok[w];
        t0 += 31;
      }
    });
  }
  for (auto& t : workers) t.join();
  for (int w = 0; w < 4; ++w) EXPECT_EQ(ok[w], 5);
}

}  // namespace
}  // namespace jedule::render
