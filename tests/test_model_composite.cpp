#include "jedule/model/composite.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <tuple>

#include "jedule/color/colormap.hpp"
#include "jedule/model/arena.hpp"
#include "jedule/model/builder.hpp"
#include "jedule/model/task_index.hpp"
#include "jedule/render/gantt.hpp"
#include "jedule/util/rng.hpp"
#include "jedule/util/strings.hpp"

namespace jedule::model {
namespace {

Schedule overlap_pair() {
  // Paper Fig. 3 scenario: computation on hosts 0-7, transfer on 2-5
  // overlapping its tail.
  return ScheduleBuilder()
      .cluster(0, "c", 8)
      .task("1", "computation", 0.0, 0.31)
      .on(0, 0, 8)
      .task("2", "transfer", 0.25, 0.50)
      .on(0, 2, 4)
      .build();
}

TEST(Composite, NoOverlapNoComposites) {
  const Schedule s = ScheduleBuilder()
                         .cluster(0, "c", 2)
                         .task("1", "t", 0, 1)
                         .on(0, 0, 1)
                         .task("2", "t", 0, 1)
                         .on(0, 1, 1)
                         .build();
  EXPECT_TRUE(synthesize_composites(s).empty());
  EXPECT_FALSE(has_resource_conflicts(s));
}

TEST(Composite, TouchingIntervalsDoNotOverlap) {
  const Schedule s = ScheduleBuilder()
                         .cluster(0, "c", 1)
                         .task("1", "t", 0, 1)
                         .on(0, 0, 1)
                         .task("2", "t", 1, 2)
                         .on(0, 0, 1)
                         .build();
  EXPECT_TRUE(synthesize_composites(s).empty());
}

TEST(Composite, PairOverlapGeometry) {
  const auto composites = synthesize_composites(overlap_pair());
  ASSERT_EQ(composites.size(), 1u);
  const Composite& c = composites[0];
  EXPECT_EQ(c.task.id(), "1+2");
  EXPECT_EQ(c.task.type(), "composite");
  EXPECT_DOUBLE_EQ(c.task.start_time(), 0.25);
  EXPECT_DOUBLE_EQ(c.task.end_time(), 0.31);
  ASSERT_EQ(c.task.configurations().size(), 1u);
  const auto& cfg = c.task.configurations()[0];
  ASSERT_EQ(cfg.hosts.size(), 1u);
  EXPECT_EQ(cfg.hosts[0], (HostRange{2, 4}));
  EXPECT_EQ(c.member_ids, (std::vector<std::string>{"1", "2"}));
  EXPECT_EQ(c.member_types,
            (std::set<std::string>{"computation", "transfer"}));
}

TEST(Composite, ThreeWayOverlapSplitsByMemberSet) {
  // a: [0,10), b: [4,6), c: [5,8) on one host -> member sets change at
  // 4, 5, 6, 8.
  const Schedule s = ScheduleBuilder()
                         .cluster(0, "c", 1)
                         .task("a", "t", 0, 10)
                         .on(0, 0, 1)
                         .task("b", "t", 4, 6)
                         .on(0, 0, 1)
                         .task("c", "t", 5, 8)
                         .on(0, 0, 1)
                         .build();
  auto composites = synthesize_composites(s);
  ASSERT_EQ(composites.size(), 3u);
  std::map<std::string, std::pair<double, double>> by_id;
  for (const auto& comp : composites) {
    by_id[comp.task.id()] = {comp.task.start_time(), comp.task.end_time()};
  }
  EXPECT_EQ(by_id.at("a+b"), (std::pair<double, double>{4, 5}));
  EXPECT_EQ(by_id.at("a+b+c"), (std::pair<double, double>{5, 6}));
  EXPECT_EQ(by_id.at("a+c"), (std::pair<double, double>{6, 8}));
}

TEST(Composite, AdjacentHostsMergeIntoRanges) {
  const Schedule s = ScheduleBuilder()
                         .cluster(0, "c", 4)
                         .task("1", "t", 0, 2)
                         .on(0, 0, 4)
                         .task("2", "t", 1, 3)
                         .on(0, 1, 2)
                         .build();
  const auto composites = synthesize_composites(s);
  ASSERT_EQ(composites.size(), 1u);
  const auto& cfg = composites[0].task.configurations()[0];
  ASSERT_EQ(cfg.hosts.size(), 1u);
  EXPECT_EQ(cfg.hosts[0], (HostRange{1, 2}));
}

TEST(Composite, DisjointHostGroupsStaySeparate) {
  // Overlap on hosts 0 and 2 but not 1 -> one composite with two ranges.
  const Schedule s = ScheduleBuilder()
                         .cluster(0, "c", 3)
                         .task("1", "t", 0, 2)
                         .hosts(0, {0, 2})
                         .task("2", "t", 1, 3)
                         .hosts(0, {0, 2})
                         .build();
  const auto composites = synthesize_composites(s);
  ASSERT_EQ(composites.size(), 1u);
  const auto& cfg = composites[0].task.configurations()[0];
  ASSERT_EQ(cfg.hosts.size(), 2u);
  EXPECT_EQ(cfg.hosts[0], (HostRange{0, 1}));
  EXPECT_EQ(cfg.hosts[1], (HostRange{2, 1}));
}

TEST(Composite, ClustersNeverMerge) {
  // Identical overlaps in two clusters stay two composite tasks.
  const Schedule s = ScheduleBuilder()
                         .cluster(0, "c0", 1)
                         .cluster(1, "c1", 1)
                         .task("1", "t", 0, 2)
                         .on(0, 0, 1)
                         .on(1, 0, 1)
                         .task("2", "t", 1, 3)
                         .on(0, 0, 1)
                         .on(1, 0, 1)
                         .build();
  EXPECT_EQ(synthesize_composites(s).size(), 2u);
}

TEST(Composite, ZeroDurationTasksIgnored) {
  const Schedule s = ScheduleBuilder()
                         .cluster(0, "c", 1)
                         .task("1", "t", 0, 2)
                         .on(0, 0, 1)
                         .task("marker", "t", 1, 1)
                         .on(0, 0, 1)
                         .build();
  EXPECT_TRUE(synthesize_composites(s).empty());
}

TEST(Composite, FilterSelectsParticipants) {
  const Schedule s = overlap_pair();
  const auto only_compute = synthesize_composites(
      s, [](const Task& t) { return t.type() == "computation"; });
  EXPECT_TRUE(only_compute.empty());
  EXPECT_FALSE(has_resource_conflicts(
      s, [](const Task& t) { return t.type() == "computation"; }));
  EXPECT_TRUE(has_resource_conflicts(s));
}

TEST(WithComposites, AppendsValidTasksWithProperties) {
  const Schedule s = with_composites(overlap_pair());
  EXPECT_EQ(s.tasks().size(), 3u);
  const Task* comp = s.find_task("1+2");
  ASSERT_NE(comp, nullptr);
  EXPECT_EQ(comp->property("members"), "1,2");
  EXPECT_EQ(comp->property("member_types"), "computation,transfer");
  EXPECT_NO_THROW(s.validate());
}

TEST(WithComposites, DisambiguatesRepeatedMemberSets) {
  // The same pair overlaps twice in disjoint time windows -> two composite
  // tasks whose natural ids collide; validate() requires uniqueness.
  const Schedule s = with_composites(ScheduleBuilder()
                                         .cluster(0, "c", 1)
                                         .task("1", "t", 0, 2)
                                         .on(0, 0, 1)
                                         .task("2", "t", 1, 4)
                                         .on(0, 0, 1)
                                         .task("3", "t", 3, 6)
                                         .on(0, 0, 1)
                                         .build());
  EXPECT_NO_THROW(s.validate());
  EXPECT_EQ(s.tasks().size(), 5u);  // 3 tasks + 2 composites
}

TEST(WithComposites, AvoidsIdsAlreadyInTheSchedule) {
  // Tasks 1 and 2 overlap; the schedule already names tasks "1+2" and
  // "1+2#1", so the composite must take the next free suffix.
  const Schedule s = with_composites(ScheduleBuilder()
                                         .cluster(0, "c", 2)
                                         .task("1", "t", 0, 2)
                                         .on(0, 0, 1)
                                         .task("2", "t", 1, 3)
                                         .on(0, 0, 1)
                                         .task("1+2", "t", 0, 3)
                                         .on(0, 1, 1)
                                         .task("1+2#1", "t", 3, 4)
                                         .on(0, 1, 1)
                                         .build());
  EXPECT_NO_THROW(s.validate());
  ASSERT_EQ(s.tasks().size(), 5u);
  EXPECT_EQ(s.tasks().back().id(), "1+2#2");
  EXPECT_EQ(s.tasks().back().property("members"), "1,2");
}

// Property test: on random single-cluster schedules, composites cover
// exactly the multi-occupied instants (checked by dense sampling).
class CompositeProperty : public ::testing::TestWithParam<int> {};

TEST_P(CompositeProperty, CoversExactlyMultiOccupiedRegions) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const int hosts = 6;
  ScheduleBuilder builder;
  builder.cluster(0, "c", hosts);
  const int n = 12;
  for (int i = 0; i < n; ++i) {
    const double start = rng.uniform(0, 50);
    const double len = rng.uniform(1, 20);
    const int first = static_cast<int>(rng.uniform_int(0, hosts - 1));
    const int count =
        static_cast<int>(rng.uniform_int(1, hosts - first));
    builder.task("t" + std::to_string(i), "w", start, start + len)
        .on(0, first, count);
  }
  const Schedule s = builder.build();
  const auto composites = synthesize_composites(s);

  // Composites never overlap each other on any resource.
  {
    Schedule comp_only;
    comp_only.add_cluster(0, "c", hosts);
    int k = 0;
    for (const auto& comp : composites) {
      Task t = comp.task;
      t.set_id("comp" + std::to_string(k++));
      comp_only.add_task(std::move(t));
    }
    EXPECT_FALSE(has_resource_conflicts(comp_only));
  }

  // Dense sampling: composite coverage == (occupancy >= 2).
  for (double t = 0.25; t < 75.0; t += 1.37) {
    for (int h = 0; h < hosts; ++h) {
      int occupancy = 0;
      for (const auto& task : s.tasks()) {
        if (t < task.start_time() || t >= task.end_time()) continue;
        for (const auto& cfg : task.configurations()) {
          for (const auto& r : cfg.hosts) {
            if (h >= r.start && h < r.start + r.nb) ++occupancy;
          }
        }
      }
      int covered = 0;
      for (const auto& comp : composites) {
        if (t < comp.task.start_time() || t >= comp.task.end_time()) continue;
        for (const auto& cfg : comp.task.configurations()) {
          for (const auto& r : cfg.hosts) {
            if (h >= r.start && h < r.start + r.nb) ++covered;
          }
        }
      }
      EXPECT_EQ(covered, occupancy >= 2 ? 1 : 0)
          << "at t=" << t << " host=" << h << " occupancy=" << occupancy;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompositeProperty, ::testing::Range(1, 9));

// Differential: append_composites over any split/threads/filter must be
// indistinguishable from resweeping the whole schedule — the acceptance
// bar for the O(delta) live-trace path.
void expect_same_composites(const std::vector<Composite>& got,
                            const std::vector<Composite>& want,
                            const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const Composite& g = got[i];
    const Composite& w = want[i];
    EXPECT_EQ(g.task.id(), w.task.id()) << label << " #" << i;
    EXPECT_EQ(g.task.start_time(), w.task.start_time()) << label << " #" << i;
    EXPECT_EQ(g.task.end_time(), w.task.end_time()) << label << " #" << i;
    EXPECT_EQ(g.task.configurations().size(), w.task.configurations().size())
        << label << " #" << i;
    for (std::size_t c = 0;
         c < g.task.configurations().size() &&
         c < w.task.configurations().size();
         ++c) {
      EXPECT_EQ(g.task.configurations()[c].hosts,
                w.task.configurations()[c].hosts)
          << label << " #" << i;
    }
    EXPECT_EQ(g.member_ids, w.member_ids) << label << " #" << i;
    EXPECT_EQ(g.member_types, w.member_types) << label << " #" << i;
    EXPECT_EQ(g.member_indices, w.member_indices) << label << " #" << i;
  }
}

class CompositeAppend : public ::testing::TestWithParam<int> {};

TEST_P(CompositeAppend, ExtensionMatchesFullResweep) {
  util::Rng rng(static_cast<std::uint64_t>(1000 + GetParam()));
  const int hosts = 6;
  const int n = 24;
  struct Spec {
    std::string id, type;
    double start, end;
    int first, count;
  };
  std::vector<Spec> specs;
  for (int i = 0; i < n; ++i) {
    Spec s;
    s.id = "t" + std::to_string(i);
    s.type = i % 3 ? "computation" : "transfer";
    s.start = rng.uniform(0, 50);
    s.end = s.start + rng.uniform(1, 20);
    s.first = static_cast<int>(rng.uniform_int(0, hosts - 1));
    s.count = static_cast<int>(rng.uniform_int(1, hosts - s.first));
    specs.push_back(std::move(s));
  }
  auto build = [&](std::size_t count) {
    ScheduleBuilder builder;
    builder.cluster(0, "c", hosts);
    for (std::size_t i = 0; i < count; ++i) {
      builder.task(specs[i].id, specs[i].type, specs[i].start, specs[i].end)
          .on(0, specs[i].first, specs[i].count);
    }
    return builder.build();
  };

  const Schedule full = build(n);
  const TaskIndex index(full);
  const auto compute_only = [](const Task& t) {
    return t.type() == "computation";
  };

  for (std::size_t split : {std::size_t{0}, std::size_t{1}, std::size_t{8},
                            std::size_t{16}, std::size_t{23},
                            std::size_t{24}}) {
    const Schedule prefix = build(split);
    for (int threads : {1, 3}) {
      const std::string label = "split=" + std::to_string(split) +
                                " threads=" + std::to_string(threads);
      expect_same_composites(
          append_composites(full, index,
                            synthesize_composites(prefix, nullptr, threads),
                            split, nullptr, threads),
          synthesize_composites(full, nullptr, threads), label);
      // Same under a participation filter (the predicate the schedulers
      // use must thread through the cut logic unchanged).
      expect_same_composites(
          append_composites(full, index,
                            synthesize_composites(prefix, compute_only),
                            split, compute_only),
          synthesize_composites(full, compute_only), label + " filtered");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompositeAppend, ::testing::Range(1, 7));

// Reference for the slab sweep and its overlap pre-pass: every (cluster,
// host) on its own. Each elementary interval between consecutive event
// times of a host with >= 2 active allocations is a segment; segments with
// the same (cluster, begin, end, members) gather their hosts, coalesced into
// ranges. A task listing a host twice counts twice there.
std::vector<Composite> brute_force_composites(
    const Schedule& s,
    const std::function<bool(const Task&)>& include_task = nullptr) {
  const auto& tasks = s.tasks();
  using Key = std::tuple<int, Time, Time, std::vector<std::size_t>>;
  std::map<Key, std::vector<int>> groups;  // hosts, ascending
  for (const auto& cluster : s.clusters()) {
    for (int h = 0; h < cluster.hosts; ++h) {
      std::vector<std::size_t> on_host;  // one task index per allocation
      std::vector<Time> times;
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        const Task& t = tasks[i];
        if (include_task && !include_task(t)) continue;
        if (!(t.end_time() > t.start_time())) continue;
        for (const auto& cfg : t.configurations()) {
          for (const auto& r : cfg.hosts) {
            if (cfg.cluster_id != cluster.id || h < r.start ||
                h >= r.start + r.nb) {
              continue;
            }
            on_host.push_back(i);
            times.push_back(t.start_time());
            times.push_back(t.end_time());
          }
        }
      }
      std::sort(times.begin(), times.end());
      times.erase(std::unique(times.begin(), times.end()), times.end());
      for (std::size_t k = 0; k + 1 < times.size(); ++k) {
        std::vector<std::size_t> active;
        for (std::size_t i : on_host) {
          if (tasks[i].start_time() <= times[k] &&
              times[k] < tasks[i].end_time()) {
            active.push_back(i);
          }
        }
        if (active.size() < 2) continue;
        std::sort(active.begin(), active.end());
        groups[Key{cluster.id, times[k], times[k + 1], active}].push_back(h);
      }
    }
  }
  std::vector<Composite> out;
  for (const auto& [key, hosts] : groups) {
    const auto& [cluster_id, begin, end, members] = key;
    Composite comp;
    for (std::size_t i : members) {
      comp.member_ids.push_back(tasks[i].id());
      comp.member_types.insert(tasks[i].type());
    }
    comp.member_indices = members;
    comp.task.set_id(util::join(comp.member_ids, "+"));
    comp.task.set_type("composite");
    comp.task.set_times(begin, end);
    Configuration cfg;
    cfg.cluster_id = cluster_id;
    for (int h : hosts) {
      if (!cfg.hosts.empty() &&
          cfg.hosts.back().start + cfg.hosts.back().nb == h) {
        ++cfg.hosts.back().nb;
      } else {
        cfg.hosts.push_back(HostRange{h, 1});
      }
    }
    comp.task.add_configuration(std::move(cfg));
    out.push_back(std::move(comp));
  }
  return out;
}

// A task as the generators below describe it: one configuration per host
// list (each list may hold several ranges).
struct TaskSpec {
  std::string id, type;
  Time start, end;
  std::vector<std::pair<int, std::vector<int>>> configs;
};

Schedule build_specs(const std::vector<std::pair<int, int>>& clusters,
                     const std::vector<TaskSpec>& specs, std::size_t count) {
  ScheduleBuilder builder;
  for (const auto& [id, hosts] : clusters) {
    builder.cluster(id, "c" + std::to_string(id), hosts);
  }
  for (std::size_t i = 0; i < count; ++i) {
    builder.task(specs[i].id, specs[i].type, specs[i].start, specs[i].end);
    for (const auto& [cluster, hosts] : specs[i].configs) {
      builder.hosts(cluster, hosts);
    }
  }
  return builder.build();
}

// Ragged lanes: each 64-host block of a cluster runs its tasks one after
// another (gaps of 0..3, so many intervals touch), each on a random-width
// host range inside the block. `injected` tasks instead reuse the previous
// task's hosts and start before it ends: exactly that many overlapping
// pairs, spread over the lanes.
std::vector<TaskSpec> ragged_specs(std::uint64_t seed, int clusters,
                                   int lanes_per_cluster, int tasks,
                                   int injected) {
  util::Rng rng(seed);
  const int lanes = clusters * lanes_per_cluster;
  std::vector<Time> lane_end(static_cast<std::size_t>(lanes), 0);
  std::vector<std::vector<int>> lane_hosts(static_cast<std::size_t>(lanes));
  std::set<int> inject;
  while (static_cast<int>(inject.size()) < injected) {
    inject.insert(static_cast<int>(rng.uniform_int(lanes, tasks - 1)));
  }
  std::vector<TaskSpec> specs;
  for (int i = 0; i < tasks; ++i) {
    const auto lane = static_cast<std::size_t>(
        i < lanes ? i : rng.uniform_int(0, lanes - 1));
    const int cluster = static_cast<int>(lane) / lanes_per_cluster;
    const int base = static_cast<int>(lane) % lanes_per_cluster * 64;
    TaskSpec spec;
    spec.id = "t" + std::to_string(i);
    spec.type = i % 4 == 0 ? "transfer" : "computation";
    if (inject.count(i) && !lane_hosts[lane].empty()) {
      spec.start = lane_end[lane] - static_cast<Time>(rng.uniform_int(1, 5));
    } else {
      const auto width = static_cast<std::size_t>(rng.uniform_int(1, 64));
      lane_hosts[lane].resize(width);
      std::iota(lane_hosts[lane].begin(), lane_hosts[lane].end(),
                base + static_cast<int>(rng.uniform_int(
                           0, 64 - static_cast<std::int64_t>(width))));
      spec.start = lane_end[lane] + static_cast<Time>(rng.uniform_int(0, 3));
    }
    spec.end = spec.start + static_cast<Time>(rng.uniform_int(10, 40));
    spec.configs.push_back({cluster, lane_hosts[lane]});
    lane_end[lane] = std::max(lane_end[lane], spec.end);
    specs.push_back(std::move(spec));
  }
  return specs;
}

// Dense random schedules on three clusters: integer times in a short
// window (ties in begin and end, touching intervals), random task order,
// zero-duration tasks, and 1-3 configurations per task, each a scattered
// host list; two configurations on one cluster may list a host twice.
std::vector<TaskSpec> mixed_specs(std::uint64_t seed, int tasks) {
  util::Rng rng(seed);
  const int hosts[] = {8, 5, 12};
  std::vector<TaskSpec> specs;
  for (int i = 0; i < tasks; ++i) {
    TaskSpec spec;
    spec.id = "m" + std::to_string(i);
    spec.type = rng.bernoulli(0.3) ? "transfer" : "computation";
    spec.start = static_cast<Time>(rng.uniform_int(0, 30));
    spec.end = spec.start + static_cast<Time>(rng.uniform_int(0, 8));
    const int configs = static_cast<int>(rng.uniform_int(1, 3));
    for (int c = 0; c < configs; ++c) {
      const int cluster = static_cast<int>(rng.uniform_int(0, 2));
      std::vector<int> list;
      for (int h = 0; h < hosts[cluster]; ++h) {
        if (rng.bernoulli(0.3)) list.push_back(h);
      }
      if (list.empty()) list.push_back(0);
      spec.configs.push_back({cluster, std::move(list)});
    }
    specs.push_back(std::move(spec));
  }
  // One task that certainly lists a host twice, and one in a tie with it.
  specs[0].configs = {{1, {0, 1, 2}}, {1, {2, 4}}};
  specs[1].start = specs[0].start;
  specs[1].end = specs[0].end;
  specs[1].configs = {{1, {2}}};
  return specs;
}

const std::vector<std::pair<int, int>> kMixedClusters = {
    {0, 8}, {1, 5}, {2, 12}};

std::vector<std::pair<int, int>> ragged_clusters(int clusters, int lanes) {
  std::vector<std::pair<int, int>> out;
  for (int c = 0; c < clusters; ++c) out.push_back({c, lanes * 64});
  return out;
}

bool not_transfer(const Task& t) { return t.type() != "transfer"; }

void expect_matches_brute_force(const Schedule& s, const std::string& label) {
  for (const auto& filter : {std::function<bool(const Task&)>(nullptr),
                             std::function<bool(const Task&)>(not_transfer)}) {
    const std::string name = label + (filter ? " filtered" : "");
    const auto want = brute_force_composites(s, filter);
    for (int threads : {1, 2, 4}) {
      expect_same_composites(synthesize_composites(s, filter, threads), want,
                             name + " threads=" + std::to_string(threads));
    }
    EXPECT_EQ(has_resource_conflicts(s, filter),
              !synthesize_composites(s, filter).empty())
        << name;
  }
}

class CompositeOracle : public ::testing::TestWithParam<int> {};

TEST_P(CompositeOracle, RaggedLanesMatchBruteForce) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  for (int injected : {0, 1, 40}) {
    const auto specs = ragged_specs(seed, 2, 2, 300, injected);
    const Schedule s = build_specs(ragged_clusters(2, 2), specs, specs.size());
    const std::string label = "injected=" + std::to_string(injected);
    // Each injected task overlaps exactly one task on the same hosts.
    EXPECT_EQ(brute_force_composites(s).size(),
              static_cast<std::size_t>(injected))
        << label;
    expect_matches_brute_force(s, label);
  }
}

TEST_P(CompositeOracle, MixedSchedulesMatchBruteForce) {
  const auto specs = mixed_specs(static_cast<std::uint64_t>(GetParam()), 60);
  expect_matches_brute_force(
      build_specs(kMixedClusters, specs, specs.size()), "mixed");
}

TEST_P(CompositeOracle, AppendOnRaggedLanesMatchesFullSweep) {
  const auto seed = static_cast<std::uint64_t>(100 + GetParam());
  for (int injected : {0, 1, 40}) {
    const auto specs = ragged_specs(seed, 2, 2, 240, injected);
    const auto clusters = ragged_clusters(2, 2);
    const Schedule full = build_specs(clusters, specs, specs.size());
    const TaskIndex index(full);
    const auto want = brute_force_composites(full);
    for (std::size_t split : {std::size_t{1}, std::size_t{60},
                              std::size_t{180}, std::size_t{239}}) {
      const Schedule prefix = build_specs(clusters, specs, split);
      for (int threads : {1, 2, 4}) {
        expect_same_composites(
            append_composites(full, index,
                              synthesize_composites(prefix, nullptr, threads),
                              split, nullptr, threads),
            want,
            "injected=" + std::to_string(injected) +
                " split=" + std::to_string(split) +
                " threads=" + std::to_string(threads));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompositeOracle, ::testing::Range(1, 6));

TEST(CompositeScale, LargeRaggedScheduleIsThreadInvariant) {
  // Enough slab visits (~2.6M) that the overlap pre-pass shards its
  // marking at 2 and 4 threads; the serial result is the brute-force-checked
  // path above.
  const auto specs = ragged_specs(77, 1, 16, 80000, 300);
  const Schedule s = build_specs(ragged_clusters(1, 16), specs, specs.size());
  const auto want = synthesize_composites(s, nullptr, 1);
  EXPECT_EQ(want.size(), 300u);
  for (int threads : {2, 4}) {
    expect_same_composites(synthesize_composites(s, nullptr, threads), want,
                           "threads=" + std::to_string(threads));
  }
  EXPECT_TRUE(has_resource_conflicts(s));
}

// The view body over arena columns against the AoS form: equal lists,
// with and without a participation filter, at every thread count.
void expect_columns_match_aos(const Schedule& s, const std::string& label) {
  const ScheduleArena arena(s);
  const TaskView columns(arena);
  ASSERT_EQ(columns.schedule(), nullptr);
  const TaskFilter not_transfer_at = [&](std::size_t i) {
    return *columns.type(i) != "transfer";
  };
  for (int threads : {1, 2, 8}) {
    const std::string name = label + " threads=" + std::to_string(threads);
    expect_same_composites(synthesize_composites(columns, nullptr, threads),
                           synthesize_composites(s, nullptr, threads), name);
    expect_same_composites(
        synthesize_composites(columns, not_transfer_at, threads),
        synthesize_composites(s, not_transfer, threads), name + " filtered");
  }
}

TEST_P(CompositeOracle, ColumnsMatchAos) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const auto mixed = mixed_specs(seed, 60);
  expect_columns_match_aos(build_specs(kMixedClusters, mixed, mixed.size()),
                           "mixed");
  const auto ragged = ragged_specs(seed, 2, 2, 300, 40);
  expect_columns_match_aos(
      build_specs(ragged_clusters(2, 2), ragged, ragged.size()), "ragged");
}

TEST_P(CompositeOracle, AppendOverColumnsMatchesFullSweep) {
  const auto seed = static_cast<std::uint64_t>(200 + GetParam());
  const auto specs = ragged_specs(seed, 2, 2, 240, 40);
  const auto clusters = ragged_clusters(2, 2);
  const Schedule full = build_specs(clusters, specs, specs.size());
  const ScheduleArena arena(full);
  const TaskIndex index(arena);
  const TaskFilter compute_at = [&](std::size_t i) {
    return *TaskView(arena).type(i) == "computation";
  };
  const auto compute_only = [](const Task& t) {
    return t.type() == "computation";
  };
  for (std::size_t split : {std::size_t{0}, std::size_t{1}, std::size_t{60},
                            std::size_t{239}, std::size_t{240}}) {
    const ScheduleArena prefix(build_specs(clusters, specs, split));
    for (int threads : {1, 2, 8}) {
      const std::string label = "split=" + std::to_string(split) +
                                " threads=" + std::to_string(threads);
      expect_same_composites(
          append_composites(arena, index,
                            synthesize_composites(prefix, nullptr, threads),
                            split, nullptr, threads),
          synthesize_composites(full, nullptr, threads), label);
      expect_same_composites(
          append_composites(arena, index,
                            synthesize_composites(prefix, compute_at),
                            split, compute_at, threads),
          synthesize_composites(full, compute_only), label + " filtered");
    }
  }
}

// The culled layout's composites as the sweep over a copied schedule gave
// them: the selected tasks of the window's 1-hop closure (see
// layout_gantt) copied into a schedule of their own, member indices
// mapped back to task indices.
std::vector<Composite> culled_reference(const Schedule& s,
                                        const TaskIndex& index,
                                        const render::GanttStyle& style) {
  const auto selected = [&](std::uint32_t i) {
    const std::string& type = s.tasks()[i].type();
    return style.type_filter.empty() ||
           std::count(style.type_filter.begin(), style.type_filter.end(),
                      type) > 0;
  };
  const auto collect = [&](Time t0, Time t1) {
    std::vector<std::uint32_t> out;
    for (const auto& c : s.clusters()) index.collect_tasks(c.id, t0, t1, &out);
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  };
  bool have = false;
  Time lo = 0, hi = 0;
  for (std::uint32_t i : collect(style.time_window->begin,
                                 style.time_window->end)) {
    if (!selected(i)) continue;
    const Task& t = s.tasks()[i];
    lo = have ? std::min(lo, t.start_time()) : t.start_time();
    hi = have ? std::max(hi, t.end_time()) : t.end_time();
    have = true;
  }
  if (!have) return {};
  Schedule sub;
  for (const auto& c : s.clusters()) sub.add_cluster(c);
  std::vector<std::size_t> kept;
  for (std::uint32_t i : collect(lo, hi)) {
    if (!selected(i)) continue;
    sub.add_task(s.tasks()[i]);
    kept.push_back(i);
  }
  auto out = synthesize_composites(sub);
  for (auto& comp : out) {
    for (auto& m : comp.member_indices) m = kept[m];
  }
  return out;
}

TEST_P(CompositeOracle, CulledLayoutCompositesUnchanged) {
  const auto specs = ragged_specs(static_cast<std::uint64_t>(300 + GetParam()),
                                  2, 2, 400, 60);
  const Schedule s = build_specs(ragged_clusters(2, 2), specs, specs.size());
  const ScheduleArena arena(s);
  const TaskIndex index(s);
  const auto range = s.time_range();
  ASSERT_TRUE(range.has_value());
  render::LayoutHints hints;
  hints.index = &index;
  std::size_t found = 0;
  for (const double lo : {0.1, 0.45, 0.8}) {
    for (const bool filtered : {false, true}) {
      render::GanttStyle style;
      style.time_window = TimeRange{range->begin + range->length() * lo,
                                    range->begin + range->length() * (lo + 0.1)};
      if (filtered) style.type_filter = {"computation"};
      const auto want = culled_reference(s, index, style);
      found += want.size();
      for (const TaskView& tasks : {TaskView(s), TaskView(arena)}) {
        for (int threads : {1, 4}) {
          const auto layout = render::layout_gantt(
              tasks, color::standard_colormap(), style, threads, hints);
          ASSERT_TRUE(layout.culled);
          expect_same_composites(
              layout.composites(), want,
              "lo=" + std::to_string(lo) + (filtered ? " filtered" : "") +
                  (tasks.schedule() ? " aos" : " columns") +
                  " threads=" + std::to_string(threads));
        }
      }
    }
  }
  EXPECT_GT(found, 0u);
}

TEST(CompositeScale, LargeColumnsMatchAos) {
  // Large enough that the radix sort and the marking pass split across
  // workers at 2 and 8 threads.
  const auto specs = ragged_specs(78, 1, 16, 80000, 300);
  expect_columns_match_aos(
      build_specs(ragged_clusters(1, 16), specs, specs.size()), "large");
}

TEST(CompositeBruteForce, HandPickedEdgeCases) {
  // A task listing host 2 twice (two configurations), zero-duration tasks,
  // touching intervals, ties in begin and end, tasks out of begin order.
  const Schedule s = ScheduleBuilder()
                         .cluster(0, "c", 6)
                         .cluster(3, "d", 2)
                         .task("late", "t", 5, 9)
                         .on(0, 0, 3)
                         .task("twice", "t", 0, 4)
                         .on(0, 1, 2)
                         .on(0, 2, 3)
                         .task("touch", "t", 4, 5)
                         .on(0, 0, 6)
                         .task("tie", "transfer", 0, 4)
                         .hosts(0, {0, 4})
                         .on(3, 0, 2)
                         .task("zero", "t", 2, 2)
                         .on(0, 0, 6)
                         .task("other", "t", 1, 4)
                         .on(3, 1, 1)
                         .build();
  std::set<std::string> ids;
  for (const auto& comp : brute_force_composites(s)) ids.insert(comp.task.id());
  EXPECT_EQ(ids, (std::set<std::string>{"twice+twice", "twice+tie",
                                        "tie+other"}));
  expect_matches_brute_force(s, "hand-picked");
}

}  // namespace
}  // namespace jedule::model
