#include "jedule/render/ascii.hpp"

#include <gtest/gtest.h>

#include "jedule/interactive/session.hpp"
#include "jedule/model/builder.hpp"
#include "jedule/util/error.hpp"
#include "jedule/util/strings.hpp"

namespace jedule::render {
namespace {

// A named schedule: render_ascii views its input, and a view of a
// temporary does not compile.
const model::Schedule& demo() {
  static const model::Schedule s = model::ScheduleBuilder()
                                       .cluster(0, "c0", 4)
                                       .task("1", "computation", 0.0, 6.0)
                                       .on(0, 0, 4)
                                       .task("2", "transfer", 4.0, 10.0)
                                       .on(0, 1, 2)
                                       .build();
  return s;
}

TEST(Ascii, OneLinePerHostWithLabels) {
  const std::string text = render_ascii(demo());
  EXPECT_NE(text.find("c0 (4 hosts)"), std::string::npos);
  EXPECT_NE(text.find("   0 |"), std::string::npos);
  EXPECT_NE(text.find("   3 |"), std::string::npos);
  EXPECT_EQ(text.find("   4 |"), std::string::npos);
}

TEST(Ascii, CellsReflectTasksIdleAndOverlap) {
  AsciiOptions options;
  options.width = 20;  // 0.5 s per cell over [0, 10)
  const std::string text = render_ascii(demo(), options);
  const auto lines = util::split(text, '\n');
  // Row of host 0: computation 'c' for [0,6), idle after.
  const std::string& row0 = lines[1];
  EXPECT_NE(row0.find("cccc"), std::string::npos);
  EXPECT_NE(row0.find("...."), std::string::npos);
  EXPECT_EQ(row0.find("t"), std::string::npos);
  // Row of host 1: overlap [4,6) shows '*', then transfer 't'.
  const std::string& row1 = lines[2];
  EXPECT_NE(row1.find("*"), std::string::npos);
  EXPECT_NE(row1.find("t"), std::string::npos);
}

TEST(Ascii, LegendListsTypes) {
  const std::string text = render_ascii(demo());
  EXPECT_NE(text.find("legend:"), std::string::npos);
  EXPECT_NE(text.find("c=computation"), std::string::npos);
  EXPECT_NE(text.find("t=transfer"), std::string::npos);
  AsciiOptions no_legend;
  no_legend.show_legend = false;
  EXPECT_EQ(render_ascii(demo(), no_legend).find("legend:"),
            std::string::npos);
}

TEST(Ascii, LegendLettersAreUniquePerType) {
  auto s = model::ScheduleBuilder()
               .cluster(0, "c", 2)
               .task("1", "compute", 0, 1)
               .on(0, 0, 1)
               .task("2", "copy", 0, 1)  // same initial 'c'
               .on(0, 1, 1)
               .build();
  const std::string text = render_ascii(s);
  EXPECT_NE(text.find("=compute"), std::string::npos);
  EXPECT_NE(text.find("=copy"), std::string::npos);
  // Two distinct letters before the '=' signs.
  const auto a = text.find("=compute");
  const auto b = text.find("=copy");
  EXPECT_NE(text[a - 1], text[b - 1]);
}

TEST(Ascii, TallClustersGroupHosts) {
  model::ScheduleBuilder builder;
  builder.cluster(0, "big", 64);
  builder.task("1", "job", 0, 1).on(0, 0, 64);
  AsciiOptions options;
  options.max_rows_per_cluster = 8;
  const model::Schedule s = builder.build();
  const std::string text = render_ascii(s, options);
  EXPECT_NE(text.find("8 hosts/row"), std::string::npos);
  EXPECT_NE(text.find("   0 |"), std::string::npos);
  EXPECT_NE(text.find("  56 |"), std::string::npos);
}

TEST(Ascii, TimeWindowZooms) {
  AsciiOptions options;
  options.width = 20;
  options.time_window = model::TimeRange{6.0, 10.0};  // transfer only
  const std::string text = render_ascii(demo(), options);
  EXPECT_EQ(text.find("c"), text.find("c0"));  // no computation cells
  EXPECT_NE(text.find("tttt"), std::string::npos);
}

TEST(Ascii, ClusterFilter) {
  auto s = model::ScheduleBuilder()
               .cluster(0, "zero", 2)
               .cluster(1, "one", 2)
               .task("1", "t", 0, 1)
               .on(0, 0, 2)
               .task("2", "t", 0, 1)
               .on(1, 0, 2)
               .build();
  AsciiOptions options;
  options.cluster_filter = {1};
  const std::string text = render_ascii(s, options);
  EXPECT_EQ(text.find("zero"), std::string::npos);
  EXPECT_NE(text.find("one"), std::string::npos);
}

TEST(Ascii, Validation) {
  AsciiOptions bad;
  bad.width = 3;
  EXPECT_THROW(render_ascii(demo(), bad), ArgumentError);
  bad.width = 40;
  bad.max_rows_per_cluster = 0;
  EXPECT_THROW(render_ascii(demo(), bad), ArgumentError);
}

TEST(Ascii, SessionCommandRendersCurrentView) {
  interactive::Session session(demo(), color::standard_colormap());
  const std::string full = session.execute("ascii");
  EXPECT_NE(full.find("c0 (4 hosts)"), std::string::npos);
  EXPECT_NE(full.find("legend:"), std::string::npos);
  session.execute("zoom 6 10");
  const std::string zoomed = session.execute("ascii");
  EXPECT_NE(zoomed, full);
  EXPECT_NE(zoomed.find("t"), std::string::npos);
}

}  // namespace
}  // namespace jedule::render
