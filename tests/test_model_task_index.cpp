#include "jedule/model/task_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <vector>

#include "jedule/model/arena.hpp"
#include "jedule/model/builder.hpp"
#include "jedule/model/schedule.hpp"

namespace jedule::model {
namespace {

/// Deterministic random schedule: `n` tasks over two clusters, a mix of
/// contiguous and scattered allocations, some zero-duration tasks.
Schedule random_schedule(int n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> start(0.0, 100.0);
  std::uniform_real_distribution<double> dur(0.0, 8.0);
  std::uniform_int_distribution<int> host(0, 12);
  std::uniform_int_distribution<int> span(1, 4);
  std::uniform_int_distribution<int> coin(0, 3);

  ScheduleBuilder b;
  b.cluster(0, "c0", 16).cluster(1, "c1", 16);
  for (int i = 0; i < n; ++i) {
    const double s = start(rng);
    const double e = coin(rng) == 0 ? s : s + dur(rng);  // some zero-length
    b.task(std::to_string(i), i % 2 ? "computation" : "transfer", s, e);
    const int h = host(rng);
    b.on(i % 2, h, span(rng));
    if (coin(rng) == 0) {
      // Multi-cluster task with a second (scattered) allocation; the two
      // hosts must be distinct for the schedule to validate.
      const int h2 = host(rng);
      b.hosts((i + 1) % 2, {h2, (h2 + 5) % 13});
    }
  }
  return b.build();
}

/// Brute-force reference: every (configuration x host range) whose closed
/// interval intersects [t0, t1].
std::vector<TaskIndex::Entry> brute_query(const Schedule& s, int cluster_id,
                                          double t0, double t1) {
  std::vector<TaskIndex::Entry> out;
  for (std::size_t i = 0; i < s.tasks().size(); ++i) {
    const Task& t = s.tasks()[i];
    if (t.start_time() > t1 || t.end_time() < t0) continue;
    for (const auto& cfg : t.configurations()) {
      if (cfg.cluster_id != cluster_id) continue;
      for (const auto& hr : cfg.hosts) {
        out.push_back({t.start_time(), t.end_time(), hr.start,
                       hr.start + hr.nb - 1,
                       static_cast<std::uint32_t>(i)});
      }
    }
  }
  return out;
}

std::multiset<std::tuple<double, double, int, int, std::uint32_t>> key_set(
    const std::vector<TaskIndex::Entry>& entries) {
  std::multiset<std::tuple<double, double, int, int, std::uint32_t>> keys;
  for (const auto& e : entries) {
    keys.insert({e.begin, e.end, e.host_start, e.host_end, e.task});
  }
  return keys;
}

TEST(TaskIndex, QueryMatchesBruteForce) {
  const Schedule s = random_schedule(400, 7);
  const TaskIndex index(s);
  std::mt19937 rng(11);
  std::uniform_real_distribution<double> point(-10.0, 120.0);
  for (int cluster = 0; cluster <= 1; ++cluster) {
    for (int trial = 0; trial < 50; ++trial) {
      double t0 = point(rng), t1 = point(rng);
      if (t1 < t0) std::swap(t0, t1);
      std::vector<TaskIndex::Entry> got;
      index.query(cluster, t0, t1,
                  [&](const TaskIndex::Entry& e) { got.push_back(e); });
      EXPECT_EQ(key_set(got), key_set(brute_query(s, cluster, t0, t1)))
          << "cluster " << cluster << " window [" << t0 << ", " << t1 << "]";
    }
  }
}

TEST(TaskIndex, ZeroDurationAndEdgeTouchingTasksAreReported) {
  const Schedule s = ScheduleBuilder()
                         .cluster(0, "c", 4)
                         .task("z", "t", 5.0, 5.0)
                         .on(0, 0, 1)
                         .task("edge", "t", 0.0, 2.0)
                         .on(0, 1, 1)
                         .build();
  const TaskIndex index(s);
  std::vector<std::uint32_t> tasks;
  // Window starting exactly at the zero-duration instant.
  index.collect_tasks(0, 5.0, 9.0, &tasks);
  EXPECT_EQ(tasks, (std::vector<std::uint32_t>{0}));
  tasks.clear();
  // Window whose begin touches the end of "edge" exactly.
  index.collect_tasks(0, 2.0, 3.0, &tasks);
  EXPECT_EQ(tasks, (std::vector<std::uint32_t>{1}));
}

TEST(TaskIndex, CollectTasksIsSortedAndUnique) {
  const Schedule s = random_schedule(300, 3);
  const TaskIndex index(s);
  std::vector<std::uint32_t> tasks;
  index.collect_tasks(0, 0.0, 200.0, &tasks);
  index.collect_tasks(1, 0.0, 200.0, &tasks);
  std::vector<std::uint32_t> sorted = tasks;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  // Each per-cluster call appends a sorted, duplicate-free run even for
  // tasks with several host ranges.
  std::vector<std::uint32_t> merged = tasks;
  std::sort(merged.begin(), merged.end());
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  EXPECT_EQ(merged.size(), s.tasks().size());
}

TEST(TaskIndex, CompactedExtensionMatchesFreshBuild) {
  // random_schedule(k * kStep, seed) is a prefix of the full schedule, so
  // its tasks [(k - 1) * kStep, k * kStep), appended as events (each keeps
  // its first host range), make step k an O(delta) extension. Eleven
  // extensions push both clusters past the segment cap, and the
  // compaction merges time-sorted segments whose concatenated task order
  // is not ascending.
  constexpr int kSteps = 12;
  constexpr int kStep = 25;
  ScheduleArena arena(random_schedule(kStep, 11));
  TaskIndex index(arena.to_schedule());
  for (int k = 2; k <= kSteps; ++k) {
    const Schedule s = random_schedule(k * kStep, 11);
    std::vector<ScheduleArena::Event> events;
    for (int i = (k - 1) * kStep; i < k * kStep; ++i) {
      const Task& t = s.tasks()[static_cast<std::size_t>(i)];
      const Configuration& cfg = t.configurations().front();
      events.push_back({t.id(), t.type(), t.start_time(), t.end_time(),
                        cfg.cluster_id, cfg.hosts.front().start,
                        cfg.hosts.front().nb, {}});
    }
    const std::size_t first = arena.task_count();
    arena.append(events);
    index = TaskIndex(index, arena, first);
  }
  const TaskIndex fresh(arena.to_schedule());
  EXPECT_EQ(index.content_hash(), fresh.content_hash());
  for (const int c : {0, 1}) {
    EXPECT_LT(index.segment_count(c), static_cast<std::size_t>(kSteps));
    EXPECT_EQ(index.cluster_tasks(c), fresh.cluster_tasks(c)) << c;
    for (const auto& [t0, t1] : std::vector<std::pair<double, double>>{
             {0.0, 200.0}, {10.0, 20.0}, {50.0, 50.5}, {95.0, 120.0}}) {
      std::vector<std::uint32_t> got, want;
      index.collect_tasks(c, t0, t1, &got);
      fresh.collect_tasks(c, t0, t1, &want);
      EXPECT_EQ(got, want) << c << " [" << t0 << ", " << t1 << "]";
    }
  }
}

TEST(TaskIndex, CountUptoStopsEarlyButIsExactBelowLimit) {
  const Schedule s = random_schedule(200, 5);
  const TaskIndex index(s);
  const auto all = brute_query(s, 0, 0.0, 200.0);
  EXPECT_EQ(index.count_upto(0, 0.0, 200.0, 100000), all.size());
  EXPECT_EQ(index.count_upto(0, 0.0, 200.0, 5), 5u);
  EXPECT_EQ(index.count_upto(0, 1e9, 2e9, 5), 0u);
}

TEST(TaskIndex, TopmostAtPicksHighestTaskIndex) {
  // Two overlapping tasks on the same host: the later-added one paints on
  // top, so the point query must return it.
  const Schedule s = ScheduleBuilder()
                         .cluster(0, "c", 4)
                         .task("under", "t", 0.0, 10.0)
                         .on(0, 0, 4)
                         .task("over", "t", 2.0, 6.0)
                         .on(0, 1, 2)
                         .build();
  const TaskIndex index(s);
  const auto* top = index.topmost_at(0, 4.0, 1);
  ASSERT_NE(top, nullptr);
  EXPECT_EQ(top->task, 1u);
  const auto* under = index.topmost_at(0, 4.0, 0);
  ASSERT_NE(under, nullptr);
  EXPECT_EQ(under->task, 0u);
  EXPECT_EQ(index.topmost_at(0, 11.0, 0), nullptr);
  // Host 3 is covered only by "under" (hosts 0-3).
  const auto* host3 = index.topmost_at(0, 4.0, 3);
  ASSERT_NE(host3, nullptr);
  EXPECT_EQ(host3->task, 0u);
}

TEST(TaskIndex, TimeRangeAndCounts) {
  const Schedule s = random_schedule(100, 9);
  const TaskIndex index(s);
  EXPECT_EQ(index.task_count(), s.tasks().size());
  ASSERT_TRUE(index.time_range().has_value());
  auto range = *s.time_range();
  EXPECT_DOUBLE_EQ(index.time_range()->begin, range.begin);
  EXPECT_DOUBLE_EQ(index.time_range()->end, range.end);
  EXPECT_EQ(index.entry_count(0) + index.entry_count(1),
            brute_query(s, 0, -1e18, 1e18).size() +
                brute_query(s, 1, -1e18, 1e18).size());
}

TEST(TaskIndex, ContentHashDetectsChanges) {
  const Schedule a = random_schedule(50, 1);
  const Schedule b = random_schedule(50, 1);
  EXPECT_EQ(TaskIndex(a).content_hash(), TaskIndex(b).content_hash());
  EXPECT_EQ(TaskIndex(a).content_hash(), TaskIndex::hash_schedule(a));

  Schedule c = random_schedule(50, 1);
  Task extra("extra", "t", 0.0, 1.0);
  extra.allocate(0, 0, 1);
  c.add_task(std::move(extra));
  EXPECT_NE(TaskIndex(a).content_hash(), TaskIndex::hash_schedule(c));

  const Schedule d = random_schedule(50, 2);  // different seed
  EXPECT_NE(TaskIndex(a).content_hash(), TaskIndex(d).content_hash());
}

TEST(TaskIndex, ThreadedBuildMatchesSerialBuild) {
  // More than two collection blocks (2^15 tasks each), plus a cluster that
  // gets no entries, so every piece of the threaded build runs.
  Schedule s = random_schedule(70000, 21);
  s.add_cluster(5, "idle", 4);
  const TaskIndex serial(s, 1);
  const TaskIndex threaded(s, 4);
  EXPECT_EQ(threaded.content_hash(), serial.content_hash());
  EXPECT_EQ(threaded.tasks_hash(), serial.tasks_hash());
  EXPECT_EQ(threaded.content_hash(), TaskIndex::hash_schedule(s));
  EXPECT_EQ(threaded.time_range(), serial.time_range());
  EXPECT_EQ(threaded.task_count(), serial.task_count());
  for (int c : {0, 1, 5}) {
    EXPECT_EQ(threaded.entry_count(c), serial.entry_count(c)) << c;
    EXPECT_EQ(threaded.cluster_tasks(c), serial.cluster_tasks(c)) << c;
    for (double t0 = -5.0; t0 < 110.0; t0 += 9.5) {
      for (double width : {0.0, 0.7, 12.0, 200.0}) {
        std::vector<std::uint32_t> a, b;
        serial.collect_tasks(c, t0, t0 + width, &a);
        threaded.collect_tasks(c, t0, t0 + width, &b);
        EXPECT_EQ(b, a) << "cluster " << c << " [" << t0 << ", "
                        << t0 + width << "]";
      }
    }
  }
  // The flattened form is what a snapshot stores: entry order included.
  const auto fs = serial.flatten();
  const auto ft = threaded.flatten();
  ASSERT_EQ(ft.size(), fs.size());
  for (std::size_t c = 0; c < fs.size(); ++c) {
    EXPECT_EQ(ft[c].cluster_id, fs[c].cluster_id);
    ASSERT_EQ(ft[c].entries.size(), fs[c].entries.size());
    EXPECT_TRUE(std::equal(
        fs[c].entries.begin(), fs[c].entries.end(), ft[c].entries.begin(),
        [](const TaskIndex::Entry& x, const TaskIndex::Entry& y) {
          return x.begin == y.begin && x.end == y.end &&
                 x.host_start == y.host_start && x.host_end == y.host_end &&
                 x.task == y.task;
        }));
    EXPECT_EQ(ft[c].max_end, fs[c].max_end);
  }
}

TEST(TaskIndex, EmptyScheduleIsWellFormed) {
  Schedule s;
  s.add_cluster(0, "c", 2);
  const TaskIndex index(s);
  EXPECT_EQ(index.task_count(), 0u);
  EXPECT_FALSE(index.time_range().has_value());
  EXPECT_EQ(index.count_upto(0, 0, 1, 10), 0u);
  EXPECT_EQ(index.topmost_at(0, 0, 0), nullptr);
  std::vector<std::uint32_t> tasks;
  index.collect_tasks(0, 0, 1, &tasks);
  EXPECT_TRUE(tasks.empty());
}

}  // namespace
}  // namespace jedule::model
