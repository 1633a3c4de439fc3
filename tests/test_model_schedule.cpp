#include "jedule/model/schedule.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "jedule/model/arena.hpp"
#include "jedule/model/builder.hpp"
#include "jedule/model/task_view.hpp"
#include "jedule/util/error.hpp"

namespace jedule::model {
namespace {

Schedule two_cluster_schedule() {
  return ScheduleBuilder()
      .cluster(0, "c0", 4)
      .cluster(1, "c1", 2)
      .task("a", "computation", 0.0, 2.0)
      .on(0, 0, 4)
      .task("b", "computation", 1.0, 3.0)
      .on(1, 0, 2)
      .task("x", "transfer", 2.0, 2.5)
      .on(0, 3, 1)
      .on(1, 0, 1)  // spans clusters
      .build();
}

TEST(Configuration, HostCountAndList) {
  Configuration cfg;
  cfg.cluster_id = 0;
  cfg.hosts = {{0, 2}, {5, 3}};
  EXPECT_EQ(cfg.host_count(), 5);
  EXPECT_EQ(cfg.host_list(), (std::vector<int>{0, 1, 5, 6, 7}));
}

TEST(Task, ConvenienceAllocate) {
  Task t("1", "computation", 0, 1);
  t.allocate(2, 4, 8);
  ASSERT_EQ(t.configurations().size(), 1u);
  EXPECT_EQ(t.configurations()[0].cluster_id, 2);
  EXPECT_EQ(t.total_hosts(), 8);
  EXPECT_DOUBLE_EQ(t.duration(), 1.0);
}

TEST(Task, PropertiesUpsert) {
  Task t;
  t.set_property("user", "1");
  t.set_property("user", "2");
  EXPECT_EQ(t.property("user"), "2");
  EXPECT_FALSE(t.property("missing").has_value());
  EXPECT_EQ(t.properties().size(), 1u);
}

TEST(Schedule, DuplicateClusterIdRejected) {
  Schedule s;
  s.add_cluster(0, "a", 4);
  EXPECT_THROW(s.add_cluster(0, "b", 2), ValidationError);
}

TEST(Schedule, NonPositiveClusterRejected) {
  Schedule s;
  EXPECT_THROW(s.add_cluster(0, "a", 0), ValidationError);
}

TEST(Schedule, GlobalResourceIndexStacksClusters) {
  const Schedule s = two_cluster_schedule();
  EXPECT_EQ(s.total_hosts(), 6);
  EXPECT_EQ(s.global_resource_index(0, 0), 0);
  EXPECT_EQ(s.global_resource_index(0, 3), 3);
  EXPECT_EQ(s.global_resource_index(1, 0), 4);
  EXPECT_EQ(s.global_resource_index(1, 1), 5);
  EXPECT_THROW(s.global_resource_index(9, 0), ValidationError);
}

TEST(Schedule, FindTask) {
  const Schedule s = two_cluster_schedule();
  ASSERT_NE(s.find_task("x"), nullptr);
  EXPECT_EQ(s.find_task("x")->type(), "transfer");
  EXPECT_EQ(s.find_task("nope"), nullptr);
}

TEST(Schedule, MetaPreservesOrderAndUpserts) {
  Schedule s;
  s.set_meta("b", "1");
  s.set_meta("a", "2");
  s.set_meta("b", "3");
  ASSERT_EQ(s.meta().size(), 2u);
  EXPECT_EQ(s.meta()[0].first, "b");
  EXPECT_EQ(s.meta()[0].second, "3");
  EXPECT_EQ(s.meta_value("a"), "2");
}

TEST(Schedule, GlobalTimeRange) {
  const Schedule s = two_cluster_schedule();
  const auto r = s.time_range();
  ASSERT_TRUE(r);
  EXPECT_DOUBLE_EQ(r->begin, 0.0);
  EXPECT_DOUBLE_EQ(r->end, 3.0);
  EXPECT_FALSE(Schedule().time_range().has_value());
}

TEST(Schedule, ClusterLocalTimeRanges) {
  const Schedule s = two_cluster_schedule();
  const auto r0 = s.cluster_time_range(0);
  ASSERT_TRUE(r0);
  EXPECT_DOUBLE_EQ(r0->begin, 0.0);
  EXPECT_DOUBLE_EQ(r0->end, 2.5);  // task a and the transfer
  const auto r1 = s.cluster_time_range(1);
  ASSERT_TRUE(r1);
  EXPECT_DOUBLE_EQ(r1->begin, 1.0);
  EXPECT_DOUBLE_EQ(r1->end, 3.0);
}

TEST(Schedule, ViewModesDifferPerCluster) {
  const Schedule s = two_cluster_schedule();
  const auto scaled = s.view_time_range(0, ViewMode::kScaled);
  const auto aligned = s.view_time_range(0, ViewMode::kAligned);
  EXPECT_DOUBLE_EQ(scaled->end, 2.5);   // local maximum
  EXPECT_DOUBLE_EQ(aligned->end, 3.0);  // global maximum
}

TEST(Schedule, TasksInClusterIncludesSpanningTasks) {
  const Schedule s = two_cluster_schedule();
  EXPECT_EQ(s.tasks_in_cluster(0).size(), 2u);  // a and x
  EXPECT_EQ(s.tasks_in_cluster(1).size(), 2u);  // b and x
}

// -- validation branch coverage ----------------------------------------

TEST(Validate, RequiresCluster) {
  Schedule s;
  EXPECT_THROW(s.validate(), ValidationError);
}

TEST(Validate, DuplicateTaskIds) {
  Schedule s;
  s.add_cluster(0, "c", 2);
  Task a("same", "t", 0, 1);
  a.allocate(0, 0, 1);
  Task b("same", "t", 1, 2);
  b.allocate(0, 1, 1);
  s.add_task(a);
  s.add_task(b);
  EXPECT_THROW(s.validate(), ValidationError);
}

TEST(Validate, EndBeforeStart) {
  Schedule s;
  s.add_cluster(0, "c", 2);
  Task t("1", "t", 2, 1);
  t.allocate(0, 0, 1);
  s.add_task(t);
  EXPECT_THROW(s.validate(), ValidationError);
}

TEST(Validate, TaskWithoutConfiguration) {
  Schedule s;
  s.add_cluster(0, "c", 2);
  s.add_task(Task("1", "t", 0, 1));
  EXPECT_THROW(s.validate(), ValidationError);
}

TEST(Validate, UnknownClusterReference) {
  Schedule s;
  s.add_cluster(0, "c", 2);
  Task t("1", "t", 0, 1);
  t.allocate(7, 0, 1);
  s.add_task(t);
  EXPECT_THROW(s.validate(), ValidationError);
}

TEST(Validate, HostRangeOutOfBounds) {
  Schedule s;
  s.add_cluster(0, "c", 2);
  Task t("1", "t", 0, 1);
  t.allocate(0, 1, 2);  // hosts 1-2, cluster only has 0-1
  s.add_task(t);
  EXPECT_THROW(s.validate(), ValidationError);
}

TEST(Validate, DuplicateHostWithinConfiguration) {
  Schedule s;
  s.add_cluster(0, "c", 4);
  Task t("1", "t", 0, 1);
  Configuration cfg;
  cfg.cluster_id = 0;
  cfg.hosts = {{0, 2}, {1, 1}};  // host 1 twice
  t.add_configuration(cfg);
  s.add_task(t);
  EXPECT_THROW(s.validate(), ValidationError);
}

TEST(Validate, ZeroDurationTaskIsLegal) {
  Schedule s;
  s.add_cluster(0, "c", 1);
  Task t("1", "t", 1, 1);
  t.allocate(0, 0, 1);
  s.add_task(t);
  EXPECT_NO_THROW(s.validate());
}

// -- threaded validate: same verdict and message at every thread count ---

// A valid schedule of more than three validate blocks (blocks are 2^14
// tasks): two clusters, single- and multi-range configurations, and a
// forward dependency chain.
constexpr std::size_t kParityTasks = 52000;

Schedule parity_schedule() {
  Schedule s;
  s.add_cluster(0, "c0", 64);
  s.add_cluster(1, "c1", 32);
  for (std::size_t i = 0; i < kParityTasks; ++i) {
    const double t = static_cast<double>(i % 977);
    Task task("t" + std::to_string(i), i % 3 ? "computation" : "transfer", t,
              t + 1.5);
    if (i % 5 == 0) {
      Configuration cfg;
      cfg.cluster_id = 0;
      cfg.hosts = {{0, 2}, {5, 3}, {2, 2}};
      task.add_configuration(cfg);
    } else {
      task.allocate(static_cast<int>(i % 2), static_cast<int>(i % 24), 4);
    }
    s.add_task(std::move(task));
    if (i > 0 && i % 3 == 0) {
      s.add_dependency(static_cast<std::uint32_t>(i - 1),
                       static_cast<std::uint32_t>(i), 1.0);
    }
  }
  return s;
}

// The ValidationError text `check` throws, or "" when it passes.
std::string message_of(const std::function<void()>& check) {
  try {
    check();
  } catch (const ValidationError& e) {
    return e.what();
  }
  return "";
}

// The ValidationError text at `threads`, or "" when the schedule is valid.
std::string validate_message(const Schedule& s, int threads) {
  return message_of([&] { s.validate(threads); });
}

// The arena's validate() and the snapshot-load check, over the columns.
std::string arena_message(const Schedule& s) {
  return message_of([&] { ScheduleArena(s).validate(); });
}
std::string snapshot_load_message(const Schedule& s) {
  return message_of([&] {
    const ScheduleArena arena(s);
    TaskView(arena).validate_except_ids();
  });
}

// Every path runs the one check body: Schedule::validate at 1, 2 and 8
// threads, the arena's validate() and the snapshot-load check. The last
// does not look for repeated ids (the snapshot writer certified them), so
// a fixture whose first violation is one is left out there.
void expect_same_message(const Schedule& s, const std::string& what) {
  const std::string serial = validate_message(s, 1);
  EXPECT_FALSE(serial.empty()) << what << ": the defect went unnoticed";
  for (int t : {2, 8}) {
    EXPECT_EQ(validate_message(s, t), serial) << what << " threads=" << t;
  }
  EXPECT_EQ(arena_message(s), serial) << what << " arena";
  if (serial.rfind("duplicate task id", 0) != 0) {
    EXPECT_EQ(snapshot_load_message(s), serial) << what << " snapshot load";
  }
}

Task replacement(const Task& old) {
  return Task(old.id(), old.type(), old.start_time(), old.end_time());
}

TEST(ValidateParity, ValidScheduleIsValidAtEveryThreadCount) {
  const Schedule s = parity_schedule();
  for (int t : {1, 2, 8}) EXPECT_EQ(validate_message(s, t), "") << t;
}

TEST(ValidateParity, ValidScheduleIsValidInEveryPath) {
  const Schedule s = parity_schedule();
  EXPECT_EQ(arena_message(s), "");
  EXPECT_EQ(snapshot_load_message(s), "");
}

TEST(ValidateParity, EveryTaskDefectAtFirstMiddleAndLastTask) {
  const Schedule base = parity_schedule();
  const std::size_t positions[] = {0, kParityTasks / 2, kParityTasks - 1};
  const std::pair<const char*, void (*)(std::vector<Task>&, std::size_t)>
      defects[] = {
          {"empty id", [](std::vector<Task>& ts, std::size_t p) {
             ts[p].set_id("");
           }},
          {"duplicate id", [](std::vector<Task>& ts, std::size_t p) {
             // The repeat of task p's id sits at p + 1 for the first
             // position, else at p (a repeat of an earlier task).
             if (p == 0) {
               ts[1].set_id(ts[0].id());
             } else {
               ts[p].set_id(ts[p - 1].id());
             }
           }},
          {"end before start", [](std::vector<Task>& ts, std::size_t p) {
             ts[p].set_times(5.0, 4.0);
           }},
          {"no configuration", [](std::vector<Task>& ts, std::size_t p) {
             ts[p] = replacement(ts[p]);
           }},
          {"unknown cluster", [](std::vector<Task>& ts, std::size_t p) {
             Task t = replacement(ts[p]);
             t.allocate(7, 0, 1);
             ts[p] = std::move(t);
           }},
          {"host range past the cluster", [](std::vector<Task>& ts,
                                             std::size_t p) {
             Task t = replacement(ts[p]);
             t.allocate(1, 30, 4);  // cluster 1 has 32 hosts
             ts[p] = std::move(t);
           }},
          {"repeated host", [](std::vector<Task>& ts, std::size_t p) {
             Task t = replacement(ts[p]);
             Configuration cfg;
             cfg.cluster_id = 0;
             cfg.hosts = {{0, 2}, {6, 2}, {1, 1}};  // host 1 twice
             t.add_configuration(cfg);
             ts[p] = std::move(t);
           }},
      };
  for (const auto& [what, plant] : defects) {
    for (const std::size_t p : positions) {
      Schedule s = base;
      plant(s.mutable_tasks(), p);
      expect_same_message(s, std::string(what) + " at " + std::to_string(p));
    }
  }
}

TEST(ValidateParity, DuplicatePairsAcrossBlocks) {
  const Schedule base = parity_schedule();
  // Adjacent across the first block seam, and far apart.
  const std::pair<std::size_t, std::size_t> pairs[] = {
      {16383, 16384}, {100, kParityTasks - 100}, {0, kParityTasks - 1}};
  for (const auto& [a, b] : pairs) {
    Schedule s = base;
    s.mutable_tasks()[b].set_id(s.tasks()[a].id());
    expect_same_message(s, "duplicate " + std::to_string(a) + "/" +
                               std::to_string(b));
  }
}

TEST(ValidateParity, EarliestOfSeveralDefectsWins) {
  Schedule s = parity_schedule();
  auto& ts = s.mutable_tasks();
  ts[kParityTasks - 10].set_id(ts[3].id());  // late duplicate
  ts[30000].set_times(2.0, 1.0);             // earlier time defect
  ts[45000].set_id("");
  expect_same_message(s, "several defects");
  EXPECT_NE(validate_message(s, 8).find("end_time"), std::string::npos);
}

TEST(ValidateParity, DependencyDefectsAtFirstMiddleAndLastEdge) {
  const Schedule base = parity_schedule();
  const std::size_t edges = base.dependencies().size();
  for (const std::size_t k : {std::size_t{0}, edges / 2, edges - 1}) {
    Schedule backward = base;
    auto& d = backward.mutable_dependencies()[k];
    std::swap(d.src, d.dst);
    expect_same_message(backward, "backward edge " + std::to_string(k));

    Schedule out_of_range = base;
    out_of_range.mutable_dependencies()[k].dst =
        static_cast<std::uint32_t>(kParityTasks);
    expect_same_message(out_of_range, "out-of-range edge " + std::to_string(k));
  }
}

// -- builder ------------------------------------------------------------

TEST(Builder, HostsCompressesRuns) {
  const Schedule s = ScheduleBuilder()
                         .cluster(0, "c", 8)
                         .task("1", "t", 0, 1)
                         .hosts(0, {3, 1, 2, 6})
                         .build();
  const auto& cfg = s.tasks()[0].configurations()[0];
  ASSERT_EQ(cfg.hosts.size(), 2u);
  EXPECT_EQ(cfg.hosts[0], (HostRange{1, 3}));
  EXPECT_EQ(cfg.hosts[1], (HostRange{6, 1}));
}

TEST(Builder, RejectsMisuse) {
  EXPECT_THROW(ScheduleBuilder().on(0, 0, 1), ArgumentError);
  EXPECT_THROW(ScheduleBuilder().hosts(0, {1}), ArgumentError);
  EXPECT_THROW(ScheduleBuilder().property("k", "v"), ArgumentError);
  EXPECT_THROW(ScheduleBuilder()
                   .cluster(0, "c", 2)
                   .task("1", "t", 0, 1)
                   .hosts(0, {}),
               ArgumentError);
}

TEST(Builder, ValidatesOnBuild) {
  EXPECT_THROW(ScheduleBuilder()
                   .cluster(0, "c", 2)
                   .task("1", "t", 0, 1)
                   .on(0, 5, 1)
                   .build(),
               ValidationError);
}

}  // namespace
}  // namespace jedule::model
