#include "jedule/render/gantt.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "jedule/model/builder.hpp"
#include "jedule/render/export.hpp"
#include "jedule/render/exporter.hpp"
#include "jedule/render/pdf.hpp"
#include "jedule/render/png.hpp"
#include "jedule/render/raster_canvas.hpp"
#include "jedule/render/svg.hpp"
#include "jedule/util/inflate.hpp"
#include "jedule/util/error.hpp"
#include "jedule/util/rng.hpp"

namespace jedule::render {
namespace {

using model::Schedule;
using model::ScheduleBuilder;
using model::TimeRange;
using model::ViewMode;

// A layout borrows its schedule, so the tests share one long-lived copy.
const Schedule& demo_schedule() {
  static const Schedule schedule = ScheduleBuilder()
      .cluster(0, "c0", 8)
      .cluster(1, "c1", 4)
      .meta("algorithm", "demo")
      .task("1", "computation", 0.0, 4.0)
      .on(0, 0, 8)
      .task("2", "transfer", 3.0, 6.0)
      .on(0, 2, 4)
      .task("3", "computation", 8.0, 10.0)
      .on(1, 0, 4)
      .task("u", "job", 1.0, 2.0)
      .on(1, 1, 2)
      .property("user", "6447")
      .build();
  return schedule;
}

static_assert(sizeof(TaskBox) <= 40, "a box holds indices, no strings");

GanttStyle default_style() {
  GanttStyle style;
  style.width = 800;
  style.height = 500;
  return style;
}

TEST(Layout, OnePanelPerCluster) {
  const auto layout =
      layout_gantt(demo_schedule(), color::standard_colormap(),
                   default_style());
  ASSERT_EQ(layout.panels.size(), 2u);
  EXPECT_EQ(layout.panels[0].cluster_id, 0);
  EXPECT_EQ(layout.panels[1].cluster_id, 1);
  EXPECT_GT(layout.panels[1].y, layout.panels[0].y + layout.panels[0].h);
  // Heights proportional to host counts (8 vs 4).
  EXPECT_NEAR(layout.panels[0].h / layout.panels[1].h, 2.0, 0.05);
}

TEST(Layout, ClusterFilterSelectsAndOrders) {
  GanttStyle style = default_style();
  style.cluster_filter = {1};
  const auto layout =
      layout_gantt(demo_schedule(), color::standard_colormap(), style);
  ASSERT_EQ(layout.panels.size(), 1u);
  EXPECT_EQ(layout.panels[0].cluster_id, 1);
  style.cluster_filter = {7};
  EXPECT_THROW(
      layout_gantt(demo_schedule(), color::standard_colormap(), style),
      ValidationError);
}

TEST(Layout, ScaledVsAlignedRanges) {
  GanttStyle style = default_style();
  style.view_mode = ViewMode::kScaled;
  const auto scaled =
      layout_gantt(demo_schedule(), color::standard_colormap(), style);
  EXPECT_DOUBLE_EQ(scaled.panels[0].time_range.end, 6.0);   // local to c0
  EXPECT_DOUBLE_EQ(scaled.panels[1].time_range.end, 10.0);

  style.view_mode = ViewMode::kAligned;
  const auto aligned =
      layout_gantt(demo_schedule(), color::standard_colormap(), style);
  EXPECT_DOUBLE_EQ(aligned.panels[0].time_range.begin, 0.0);
  EXPECT_DOUBLE_EQ(aligned.panels[0].time_range.end, 10.0);
  EXPECT_EQ(aligned.panels[0].time_range, aligned.panels[1].time_range);
}

TEST(Layout, BoxGeometryTracksTimeAndHosts) {
  const auto layout =
      layout_gantt(demo_schedule(), color::standard_colormap(),
                   default_style());
  const auto& panel = layout.panels[0];
  // Find task 1's box (hosts 0-7 of c0, time 0..4).
  const TaskBox* box = nullptr;
  for (const auto& b : layout.boxes) {
    if (!b.composite && layout.label(b) == "1") box = &b;
  }
  ASSERT_NE(box, nullptr);
  EXPECT_DOUBLE_EQ(box->x, panel.x_of_time(0.0));
  EXPECT_DOUBLE_EQ(box->x + box->w, panel.x_of_time(4.0));
  EXPECT_DOUBLE_EQ(box->y, panel.y);
  EXPECT_DOUBLE_EQ(box->h, panel.h);  // all 8 hosts
}

TEST(Layout, CompositesAppendedAfterTasks) {
  const auto layout =
      layout_gantt(demo_schedule(), color::standard_colormap(),
                   default_style());
  // Task 1 and 2 overlap on c0 hosts 2-5 during [3,4).
  bool found = false;
  for (const auto& b : layout.boxes) {
    if (b.composite) {
      found = true;
      EXPECT_EQ(layout.type_of(b), "composite");
    }
  }
  EXPECT_TRUE(found);
  EXPECT_FALSE(layout.composites().empty());
}

TEST(Layout, ShowCompositesOffSkipsSynthesis) {
  GanttStyle style = default_style();
  style.show_composites = false;
  const auto layout =
      layout_gantt(demo_schedule(), color::standard_colormap(), style);
  EXPECT_TRUE(layout.composites().empty());
}

TEST(Layout, TimeWindowClipsBoxes) {
  GanttStyle style = default_style();
  style.time_window = TimeRange{3.5, 9.0};
  const auto layout =
      layout_gantt(demo_schedule(), color::standard_colormap(), style);
  for (const auto& b : layout.boxes) {
    const auto* panel = panel_at(layout, b.x + b.w / 2, b.y + b.h / 2);
    ASSERT_NE(panel, nullptr);
    EXPECT_GE(b.x, panel->x - 0.5);
    EXPECT_LE(b.x + b.w, panel->x + panel->w + 0.5);
  }
  // Task "u" ([1,2)) lies outside the window -> no box for it.
  for (const auto& b : layout.boxes) EXPECT_NE(layout.label(b), "u");
}

TEST(Layout, EmptyTimeWindowRejected) {
  GanttStyle style = default_style();
  style.time_window = TimeRange{5.0, 5.0};
  EXPECT_THROW(
      layout_gantt(demo_schedule(), color::standard_colormap(), style),
      ArgumentError);
}

TEST(Layout, HighlightOverridesColors) {
  GanttStyle style = default_style();
  style.highlight_key = "user";
  style.highlight_value = "6447";
  const auto layout =
      layout_gantt(demo_schedule(), color::standard_colormap(), style);
  bool highlighted = false;
  for (const auto& b : layout.boxes) {
    if (layout.label(b) == "u") {
      highlighted = b.highlighted;
      EXPECT_EQ(layout.style_of(b).background, style.highlight_bg);
    } else if (!b.composite) {
      EXPECT_FALSE(b.highlighted);
    }
  }
  EXPECT_TRUE(highlighted);
}

TEST(Layout, TooSmallCanvasRejected) {
  GanttStyle style = default_style();
  style.height = 40;
  EXPECT_THROW(
      layout_gantt(demo_schedule(), color::standard_colormap(), style),
      ArgumentError);
}

TEST(HitTest, EveryBoxCenterResolvesToItsTask) {
  const auto layout =
      layout_gantt(demo_schedule(), color::standard_colormap(),
                   default_style());
  for (const auto& b : layout.boxes) {
    const TaskBox* hit = hit_test(layout, b.x + b.w / 2, b.y + b.h / 2);
    ASSERT_NE(hit, nullptr);
    // Composites are drawn on top, so hitting a member region may return
    // the composite; in that case the member id must appear in its label.
    if (hit != &b) {
      EXPECT_TRUE(hit->composite);
      EXPECT_NE(layout.label(*hit).find(layout.label(b)), std::string::npos)
          << layout.label(*hit) << " vs " << layout.label(b);
    }
  }
}

TEST(HitTest, MissesOutsidePanels) {
  const auto layout =
      layout_gantt(demo_schedule(), color::standard_colormap(),
                   default_style());
  EXPECT_EQ(hit_test(layout, 1, 1), nullptr);
  EXPECT_EQ(panel_at(layout, 1, 1), nullptr);
}

TEST(NiceTicks, CoverRangeWithRoundSteps) {
  const auto ticks = nice_ticks(TimeRange{0.0, 0.5}, 8);
  ASSERT_GE(ticks.size(), 4u);
  EXPECT_DOUBLE_EQ(ticks.front(), 0.0);
  EXPECT_NEAR(ticks.back(), 0.5, 1e-9);
  const double step = ticks[1] - ticks[0];
  for (std::size_t i = 1; i < ticks.size(); ++i) {
    EXPECT_NEAR(ticks[i] - ticks[i - 1], step, 1e-9);
  }
}

TEST(NiceTicks, NonZeroOrigin) {
  const auto ticks = nice_ticks(TimeRange{40000, 70000}, 6);
  EXPECT_GE(ticks.front(), 40000);
  EXPECT_LE(ticks.back(), 70000 + 1e-6);
  EXPECT_GE(ticks.size(), 3u);
}

TEST(NiceTicks, DegenerateRange) {
  const auto ticks = nice_ticks(TimeRange{5, 5}, 8);
  ASSERT_EQ(ticks.size(), 1u);
  EXPECT_DOUBLE_EQ(ticks[0], 5.0);
}

TEST(Paint, RasterIsDeterministic) {
  const auto schedule = demo_schedule();
  RenderOptions options;
  options.style = default_style();
  options.threads = 1;
  const Framebuffer a = render_raster(schedule, options);
  const Framebuffer b = render_raster(schedule, options);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(encode_png(a), encode_png(b));
}

TEST(Paint, TaskPixelsHaveTaskColors) {
  const auto schedule = demo_schedule();
  const auto cmap = color::standard_colormap();
  const auto style = default_style();
  const auto layout = layout_gantt(schedule, cmap, style);
  RenderOptions options;
  options.style = style;
  options.threads = 1;
  const Framebuffer fb = render_raster(schedule, options);
  // Probe a pixel inside task 1 away from labels/borders/composites.
  for (const auto& b : layout.boxes) {
    if (layout.label(b) == "1" && !b.composite) {
      const int x = static_cast<int>(b.x + 8);
      const int y = static_cast<int>(b.y + 4);
      EXPECT_EQ(fb.pixel(x, y), cmap.style_for("computation").background);
    }
  }
}

TEST(Export, SvgContainsRectsAndText) {
  const auto layout = layout_gantt(demo_schedule(),
                                   color::standard_colormap(),
                                   default_style());
  SvgCanvas canvas(800, 500);
  paint_gantt(layout, canvas, default_style());
  const std::string svg = canvas.finish();
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("<rect"), std::string::npos);
  EXPECT_NE(svg.find("<text"), std::string::npos);
  EXPECT_NE(svg.find("c0 (8 hosts)"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
}

TEST(Export, PdfIsStructurallySound) {
  const auto layout = layout_gantt(demo_schedule(),
                                   color::standard_colormap(),
                                   default_style());
  PdfCanvas canvas(800, 500);
  paint_gantt(layout, canvas, default_style());
  const std::string pdf = canvas.finish();
  EXPECT_EQ(pdf.substr(0, 8), "%PDF-1.4");
  EXPECT_NE(pdf.find("/Type /Page"), std::string::npos);
  EXPECT_NE(pdf.find("xref"), std::string::npos);
  EXPECT_NE(pdf.find("%%EOF"), std::string::npos);
  // The page content stream is /FlateDecode-compressed; inflate it to
  // check the operators.
  const auto len_pos = pdf.find("/Length ");
  ASSERT_NE(len_pos, std::string::npos);
  const auto len_end = pdf.find(' ', len_pos + 8);
  const int length =
      std::stoi(pdf.substr(len_pos + 8, len_end - len_pos - 8));
  const auto stream_pos = pdf.find("stream\n", len_pos) + 7;
  const auto raw = util::zlib_decompress(
      reinterpret_cast<const std::uint8_t*>(pdf.data() + stream_pos),
      static_cast<std::size_t>(length));
  const std::string content(reinterpret_cast<const char*>(raw.data()),
                            raw.size());
  EXPECT_NE(content.find(" re f"), std::string::npos);  // filled rects
  EXPECT_NE(content.find("Tj ET"), std::string::npos);  // text
}

TEST(Export, FormatFromExtension) {
  const auto& registry = ExporterRegistry::instance();
  auto name_for = [&](const std::string& path) {
    const Exporter* e = registry.find_for_path(path);
    return e ? e->name() : std::string("<none>");
  };
  EXPECT_EQ(name_for("x.png"), "png");
  EXPECT_EQ(name_for("x.PNG"), "png");
  EXPECT_EQ(name_for("x.PPM"), "ppm");
  EXPECT_EQ(name_for("a/b.svg"), "svg");
  EXPECT_EQ(name_for("a/b.Svg"), "svg");
  EXPECT_EQ(name_for("x.pdf"), "pdf");
  EXPECT_EQ(registry.find_for_path("x.jpeg"), nullptr);
}

TEST(Export, BytesForAllFormats) {
  const auto schedule = demo_schedule();
  RenderOptions options;
  options.style = default_style();
  options.threads = 1;
  for (const char* format : {"png", "ppm", "svg", "pdf"}) {
    const std::string bytes = render_to_bytes(schedule, options, format);
    EXPECT_GT(bytes.size(), 100u) << format;
  }
  EXPECT_THROW(render_to_bytes(schedule, options, "jpeg"), ArgumentError);
}

TEST(Layout, CrossClusterTaskGetsOneBoxPerPanel) {
  // Paper Sec. II.C.1: "tasks may span different clusters. This is useful
  // if a communication task transfers data between tasks on different
  // clusters" — one rectangle must appear in each involved panel.
  const auto schedule = model::ScheduleBuilder()
                            .cluster(0, "a", 4)
                            .cluster(1, "b", 4)
                            .task("x", "transfer", 0.0, 1.0)
                            .on(0, 3, 1)
                            .on(1, 0, 1)
                            .build();
  const auto layout = layout_gantt(schedule, color::standard_colormap(),
                                   default_style());
  std::set<int> panels_with_x;
  for (const auto& box : layout.boxes) {
    if (layout.label(box) == "x") {
      const auto* panel =
          panel_at(layout, box.x + box.w / 2, box.y + box.h / 2);
      ASSERT_NE(panel, nullptr);
      panels_with_x.insert(panel->cluster_id);
    }
  }
  EXPECT_EQ(panels_with_x, (std::set<int>{0, 1}));
}

// Records the text a paint pass draws; measures text monospaced, like
// every real canvas.
class TextRecorder final : public Canvas {
 public:
  int width() const override { return 800; }
  int height() const override { return 500; }
  void fill_rect(double, double, double, double, color::Color) override {}
  void stroke_rect(double, double, double, double, color::Color) override {}
  void line(double, double, double, double, color::Color) override {}
  void text(double, double, std::string_view t, color::Color, int) override {
    texts.emplace_back(t);
  }
  double text_width(std::string_view t, int size) const override {
    return static_cast<double>(t.size()) * size * 0.6;
  }
  double text_height(int size) const override { return size; }

  std::vector<std::string> texts;
};

TEST(Paint, LabelPreCheckSkipsOnlyBoxesNoLabelFits) {
  // One- and two-character ids on boxes whose widths step across one
  // glyph (6.6 px at the minimum label size, 7.8 px at the preferred
  // one): every box whose label fits at either size must get it.
  ScheduleBuilder builder;
  builder.cluster(0, "c", 2);
  double t = 0;
  for (int i = 0; i < 40; ++i) {
    const std::string id = i < 26 ? std::string(1, static_cast<char>('a' + i))
                                  : "z" + std::to_string(i - 26);
    const double len = 6.0 + 0.35 * (i % 26);
    builder.task(id, "computation", t, t + len).on(0, 0, 1);
    t += len;
  }
  builder.task("pad", "transfer", 0, 730).on(0, 1, 1);  // ~1 px per unit
  const auto schedule = builder.build();
  const auto layout = layout_gantt(schedule, color::standard_colormap(),
                                   default_style());
  TextRecorder canvas;
  std::vector<std::string> want;
  for (const auto& b : layout.boxes) {
    const std::string label(layout.label(b));
    for (int size : {layout.label_font_size, layout.min_label_font_size}) {
      if (canvas.text_width(label, size) + 2 <= b.w &&
          canvas.text_height(size) + 2 <= b.h) {
        want.push_back(label);
        break;
      }
    }
  }
  paint_gantt_labels(layout, canvas, default_style());
  EXPECT_EQ(canvas.texts, want);
  EXPECT_GT(want.size(), 1u);                    // some labels fit ...
  EXPECT_LT(want.size(), layout.boxes.size());  // ... and some do not
}

TEST(Paint, HatchedCompositesDifferFromPlain) {
  const auto schedule = demo_schedule();
  RenderOptions plain;
  plain.style = default_style();
  plain.threads = 1;
  RenderOptions hatched = plain;
  hatched.style.hatch_composites = true;
  EXPECT_FALSE(render_raster(schedule, plain) ==
               render_raster(schedule, hatched));
}

TEST(Paint, ThinRowsSkipGridAndLabels) {
  // 1024 hosts in a 500px panel: rows are sub-pixel; must not crash and
  // must stay deterministic.
  util::Rng rng(3);
  ScheduleBuilder builder;
  builder.cluster(0, "big", 1024);
  for (int i = 0; i < 200; ++i) {
    const int first = static_cast<int>(rng.uniform_int(0, 1000));
    const int nb = static_cast<int>(rng.uniform_int(1, 23));
    const double s = rng.uniform(0, 100);
    builder.task("j" + std::to_string(i), "job", s, s + rng.uniform(1, 20))
        .on(0, first, nb);
  }
  const auto schedule = builder.build();
  RenderOptions options;
  options.style = default_style();
  options.threads = 1;
  const Framebuffer a = render_raster(schedule, options);
  const Framebuffer b = render_raster(schedule, options);
  EXPECT_TRUE(a == b);
}

}  // namespace
}  // namespace jedule::render
