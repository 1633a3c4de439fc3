#include "jedule/interactive/session.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "jedule/engine/store.hpp"
#include "jedule/io/file.hpp"
#include "jedule/io/jedule_xml.hpp"
#include "jedule/model/builder.hpp"
#include "jedule/util/error.hpp"

namespace jedule::interactive {
namespace {

model::Schedule demo_schedule() {
  return model::ScheduleBuilder()
      .cluster(0, "c0", 4)
      .cluster(1, "c1", 2)
      .task("1", "computation", 0.0, 10.0)
      .on(0, 0, 4)
      .task("2", "transfer", 4.0, 6.0)
      .on(1, 0, 2)
      .build();
}

Session make_session() {
  render::GanttStyle style;
  style.width = 800;
  style.height = 480;
  return Session(demo_schedule(), color::standard_colormap(), style);
}

TEST(Session, ZoomFactorShrinksWindow) {
  Session s = make_session();
  s.zoom(2.0);  // full span 10 -> 5, centered
  ASSERT_TRUE(s.style().time_window.has_value());
  EXPECT_DOUBLE_EQ(s.style().time_window->begin, 2.5);
  EXPECT_DOUBLE_EQ(s.style().time_window->end, 7.5);
  s.zoom(0.5);  // back out to 10 long
  EXPECT_DOUBLE_EQ(s.style().time_window->length(), 10.0);
}

TEST(Session, ZoomKeepsCenterFraction) {
  Session s = make_session();
  s.zoom(2.0, 0.0);  // anchor at the left edge
  EXPECT_DOUBLE_EQ(s.style().time_window->begin, 0.0);
  EXPECT_DOUBLE_EQ(s.style().time_window->end, 5.0);
}

TEST(Session, ZoomRejectsBadFactor) {
  Session s = make_session();
  EXPECT_THROW(s.zoom(0.0), ArgumentError);
  EXPECT_THROW(s.zoom(-1.0), ArgumentError);
}

TEST(Session, PanShiftsWindow) {
  Session s = make_session();
  s.zoom_to_time(2.0, 4.0);
  s.pan(1.5);
  EXPECT_DOUBLE_EQ(s.style().time_window->begin, 3.5);
  EXPECT_DOUBLE_EQ(s.style().time_window->end, 5.5);
  s.pan(-3.5);
  EXPECT_DOUBLE_EQ(s.style().time_window->begin, 0.0);
}

TEST(Session, ZoomToPixelsUsesPanelAxis) {
  Session s = make_session();
  const auto& layout = s.layout();
  const auto& panel = layout.panels.front();
  // Select the middle half of the first panel.
  s.zoom_to_pixels(panel.x + panel.w * 0.25, panel.x + panel.w * 0.75);
  ASSERT_TRUE(s.style().time_window.has_value());
  EXPECT_NEAR(s.style().time_window->begin, 2.5, 0.01);
  EXPECT_NEAR(s.style().time_window->end, 7.5, 0.01);
}

TEST(Session, ResetClearsZoomAndSelection) {
  Session s = make_session();
  s.zoom_to_time(1, 2);
  s.select_clusters({1});
  s.reset_view();
  EXPECT_FALSE(s.style().time_window.has_value());
  EXPECT_TRUE(s.style().cluster_filter.empty());
}

TEST(Session, SelectClustersValidates) {
  Session s = make_session();
  s.select_clusters({1});
  EXPECT_EQ(s.layout().panels.size(), 1u);
  EXPECT_THROW(s.select_clusters({42}), ArgumentError);
}

TEST(Session, InspectFindsTask) {
  Session s = make_session();
  const auto& layout = s.layout();
  // Center of task 1's box.
  const render::TaskBox* box = nullptr;
  for (const auto& b : layout.boxes) {
    if (b.label == "1") box = &b;
  }
  ASSERT_NE(box, nullptr);
  const std::string info = s.inspect(box->x + box->w / 2, box->y + box->h / 2);
  EXPECT_NE(info.find("task 1"), std::string::npos);
  EXPECT_NE(info.find("type=computation"), std::string::npos);
  EXPECT_NE(info.find("start=0.000"), std::string::npos);
  EXPECT_NE(info.find("end=10.000"), std::string::npos);
  EXPECT_NE(info.find("cluster 0 hosts 0-3"), std::string::npos);
}

TEST(Session, InspectMissReportsCoordinates) {
  Session s = make_session();
  EXPECT_NE(s.inspect(1, 1).find("no task at"), std::string::npos);
}

TEST(Session, InfoSummarizes) {
  Session s = make_session();
  const std::string info = s.info();
  EXPECT_NE(info.find("2 cluster(s)"), std::string::npos);
  EXPECT_NE(info.find("2 task(s)"), std::string::npos);
  EXPECT_NE(info.find("makespan=10.000"), std::string::npos);
}

TEST(Session, ExecuteCommandLanguage) {
  Session s = make_session();
  EXPECT_NE(s.execute("info").find("2 task(s)"), std::string::npos);
  EXPECT_NE(s.execute("zoom 2 8").find("window [2"), std::string::npos);
  EXPECT_NE(s.execute("pan 1").find("window [3"), std::string::npos);
  EXPECT_EQ(s.execute("reset"), "view reset");
  EXPECT_EQ(s.execute("clusters 0,1"), "showing 2 cluster(s)");
  EXPECT_EQ(s.execute("clusters all"), "showing all clusters");
  EXPECT_EQ(s.execute("mode aligned"), "mode aligned");
  EXPECT_EQ(s.execute("grayscale on"), "grayscale on");
  EXPECT_EQ(s.execute("grayscale off"), "grayscale off");
  EXPECT_NE(s.execute("help").find("commands:"), std::string::npos);
  EXPECT_EQ(s.execute(""), "");
}

TEST(Session, ExecuteRejectsBadCommands) {
  Session s = make_session();
  EXPECT_THROW(s.execute("frobnicate"), ArgumentError);
  EXPECT_THROW(s.execute("zoom"), ArgumentError);
  EXPECT_THROW(s.execute("zoom abc"), ArgumentError);
  EXPECT_THROW(s.execute("mode sideways"), ArgumentError);
  EXPECT_THROW(s.execute("clusters 0,x"), ArgumentError);
  EXPECT_THROW(s.execute("reread"), Error);  // not file-bound
}

TEST(Session, FileBoundRereadPicksUpChanges) {
  const std::string path = ::testing::TempDir() + "/session_reread.jed";
  io::save_schedule_xml(demo_schedule(), path);
  Session s(engine::load_entry(path), path, "", {},
            color::standard_colormap());
  EXPECT_NE(s.execute("info").find("2 task(s)"), std::string::npos);

  // Simulate the paper's development loop: re-run the "simulator", look
  // again.
  auto bigger = demo_schedule();
  model::Task extra("3", "computation", 10.0, 12.0);
  extra.allocate(0, 0, 2);
  bigger.add_task(std::move(extra));
  io::save_schedule_xml(bigger, path);
  EXPECT_EQ(s.execute("reread"), "reloaded " + path);
  EXPECT_NE(s.execute("info").find("3 task(s)"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Session, SnapshotWritesCurrentView) {
  Session s = make_session();
  s.zoom_to_time(4.0, 6.0);
  const std::string path = ::testing::TempDir() + "/snapshot.png";
  EXPECT_NE(s.execute("export " + path).find("wrote"), std::string::npos);
  const std::string bytes = io::read_file(path);
  EXPECT_EQ(bytes.substr(1, 3), "PNG");
  std::remove(path.c_str());
}

TEST(Session, GrayscaleAffectsRender) {
  Session s = make_session();
  const std::string color_path = ::testing::TempDir() + "/color.ppm";
  const std::string gray_path = ::testing::TempDir() + "/gray.ppm";
  s.snapshot(color_path);
  s.set_grayscale(true);
  s.snapshot(gray_path);
  EXPECT_NE(io::read_file(color_path), io::read_file(gray_path));
  // Toggling back restores the original colors exactly.
  s.set_grayscale(false);
  const std::string back_path = ::testing::TempDir() + "/back.ppm";
  s.snapshot(back_path);
  EXPECT_EQ(io::read_file(color_path), io::read_file(back_path));
  std::remove(color_path.c_str());
  std::remove(gray_path.c_str());
  std::remove(back_path.c_str());
}

TEST(Session, CmapCommandSwapsColorsOnTheFly) {
  // "Color maps can also be changed on the fly" (paper conclusions).
  const std::string cmap_path = ::testing::TempDir() + "/session_cmap.xml";
  io::write_file(cmap_path, R"(<cmap name="alt">
    <task id="computation">
      <color type="fg" rgb="000000"/><color type="bg" rgb="00ff00"/>
    </task>
  </cmap>)");
  Session s = make_session();
  const std::string before_path = ::testing::TempDir() + "/cmap_before.ppm";
  const std::string after_path = ::testing::TempDir() + "/cmap_after.ppm";
  s.snapshot(before_path);
  EXPECT_EQ(s.execute("cmap " + cmap_path), "colormap " + cmap_path);
  s.snapshot(after_path);
  EXPECT_NE(io::read_file(before_path), io::read_file(after_path));
  // The new map survives a grayscale round trip (grayscale derives from
  // the *current* map).
  s.execute("grayscale on");
  s.execute("grayscale off");
  const std::string back_path = ::testing::TempDir() + "/cmap_back.ppm";
  s.snapshot(back_path);
  EXPECT_EQ(io::read_file(after_path), io::read_file(back_path));
  std::remove(cmap_path.c_str());
  std::remove(before_path.c_str());
  std::remove(after_path.c_str());
  std::remove(back_path.c_str());
}

TEST(Session, RejectsInvalidScheduleUpFront) {
  model::Schedule bad;
  bad.add_cluster(0, "c", 2);
  model::Task t("1", "t", 0, 1);
  t.allocate(0, 5, 1);  // out of range
  bad.add_task(std::move(t));
  EXPECT_THROW(Session(std::move(bad), color::standard_colormap()),
               ValidationError);
}

}  // namespace
}  // namespace jedule::interactive
