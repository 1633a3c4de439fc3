// Task-type filtering across the stack: layout, interactive session, CLI
// style plumbing (paper Sec. II.B: "A user might only be interested in a
// certain task type"; conclusions: "filtering").

#include <gtest/gtest.h>

#include "jedule/interactive/session.hpp"
#include "jedule/model/builder.hpp"
#include "jedule/render/gantt.hpp"

namespace jedule::render {
namespace {

// A layout borrows its schedule, so the tests share one long-lived copy.
const model::Schedule& mixed_schedule() {
  static const model::Schedule schedule = model::ScheduleBuilder()
      .cluster(0, "c", 4)
      .task("c1", "computation", 0, 4)
      .on(0, 0, 4)
      .task("x1", "transfer", 3, 6)
      .on(0, 1, 2)
      .task("io1", "io", 5, 7)
      .on(0, 0, 1)
      .build();
  return schedule;
}

GanttStyle style_with_types(std::vector<std::string> types) {
  GanttStyle style;
  style.width = 600;
  style.height = 400;
  style.type_filter = std::move(types);
  return style;
}

TEST(TypeFilter, LayoutShowsOnlySelectedTypes) {
  const auto layout = layout_gantt(mixed_schedule(),
                                   color::standard_colormap(),
                                   style_with_types({"computation"}));
  for (const auto& box : layout.boxes) {
    EXPECT_EQ(layout.type_of(box), "computation");
  }
  EXPECT_TRUE(layout.composites().empty());  // no overlaps left
}

TEST(TypeFilter, BoxesIndexTheScheduleTasks) {
  // Filtering skips tasks but does not renumber them: every ordinary box
  // names its task by schedule index.
  const auto& schedule = mixed_schedule();
  const auto layout = layout_gantt(schedule, color::standard_colormap(),
                                   style_with_types({"transfer", "io"}));
  std::vector<std::uint32_t> indices;
  for (const auto& box : layout.boxes) {
    if (!box.composite) indices.push_back(box.task_index);
  }
  EXPECT_EQ(indices, (std::vector<std::uint32_t>{1, 2}));  // x1, io1
  EXPECT_EQ(layout.tasks.schedule(), &schedule);
}

TEST(TypeFilter, CompositesComeFromFilteredTasksOnly) {
  // computation+transfer overlap on hosts 1-2 during [3,4); filtering to
  // those two types keeps the composite, filtering transfer out drops it.
  const auto both = layout_gantt(mixed_schedule(),
                                 color::standard_colormap(),
                                 style_with_types({"computation", "transfer"}));
  EXPECT_FALSE(both.composites().empty());

  const auto one = layout_gantt(mixed_schedule(),
                                color::standard_colormap(),
                                style_with_types({"computation", "io"}));
  EXPECT_TRUE(one.composites().empty());
}

TEST(TypeFilter, EmptyFilterShowsEverything) {
  const auto layout = layout_gantt(mixed_schedule(),
                                   color::standard_colormap(),
                                   style_with_types({}));
  // 3 tasks (4 boxes counting composite pieces).
  std::size_t plain = 0;
  for (const auto& box : layout.boxes) {
    if (!box.composite) ++plain;
  }
  EXPECT_EQ(plain, 3u);
}

TEST(TypeFilter, SessionCommand) {
  interactive::Session session(mixed_schedule(), color::standard_colormap());
  EXPECT_EQ(session.execute("types computation,io"),
            "showing 2 task type(s)");
  const std::string ascii = session.execute("ascii");
  EXPECT_EQ(ascii.find("=transfer"), std::string::npos);
  EXPECT_NE(ascii.find("=computation"), std::string::npos);
  EXPECT_EQ(session.execute("types all"), "showing all task types");
  EXPECT_NE(session.execute("ascii").find("=transfer"), std::string::npos);
}

}  // namespace
}  // namespace jedule::render
