// Differential suite for the columnar ScheduleArena against the AoS
// Schedule (DESIGN.md §4h): both representations must agree on hashes,
// validation verdicts, partitions, bounds and density, and the O(delta)
// append must be indistinguishable from rebuilding from scratch.

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "jedule/io/jedule_xml.hpp"
#include "jedule/model/arena.hpp"
#include "jedule/model/builder.hpp"
#include "jedule/model/schedule.hpp"
#include "jedule/model/task_index.hpp"
#include "jedule/util/error.hpp"
#include "jedule/util/rng.hpp"

namespace jedule::model {
namespace {

Schedule sample_schedule() {
  return ScheduleBuilder()
      .cluster(0, "c0", 8)
      .cluster(1, "c1", 4)
      .meta("algorithm", "CPA")
      .task("a", "computation", 0.0, 2.0)
      .on(0, 0, 4)
      .task("b", "transfer", 1.0, 3.0)
      .on(0, 4, 2)
      .on(1, 0, 2)
      .task("c", "computation", 2.5, 4.0)
      .hosts(0, {1, 3, 5})
      .task("d", "io", 0.5, 0.5)
      .on(1, 2, 1)
      .property("user", "42")
      .build();
}

// A larger pseudo-random schedule: many tasks, single contiguous
// allocations (the event shape), two clusters.
Schedule random_schedule(int tasks, unsigned seed) {
  util::Rng rng(seed);
  ScheduleBuilder b;
  b.cluster(0, "c0", 64).cluster(1, "c1", 32);
  for (int i = 0; i < tasks; ++i) {
    const int cluster = static_cast<int>(rng.uniform_int(0, 1));
    const int hosts = cluster == 0 ? 64 : 32;
    const int nb = static_cast<int>(rng.uniform_int(1, 4));
    const int first = static_cast<int>(rng.uniform_int(0, hosts - nb));
    const double start = rng.uniform(0.0, 100.0);
    b.task("t" + std::to_string(i), i % 3 ? "computation" : "transfer",
           start, start + rng.uniform(0.1, 5.0))
        .on(cluster, first, nb);
  }
  return b.build();
}

std::vector<ScheduleArena::Event> events_for(const Schedule& schedule,
                                             std::size_t first) {
  std::vector<ScheduleArena::Event> events;
  for (std::size_t i = first; i < schedule.tasks().size(); ++i) {
    const Task& t = schedule.tasks()[i];
    const Configuration& cfg = t.configurations().front();
    ScheduleArena::Event e;
    e.id = t.id();
    e.type = t.type();
    e.start = t.start_time();
    e.end = t.end_time();
    e.cluster_id = cfg.cluster_id;
    e.host_start = cfg.hosts.front().start;
    e.host_nb = cfg.hosts.front().nb;
    events.push_back(std::move(e));
  }
  return events;
}

TEST(ScheduleArena, RoundTripsThroughColumns) {
  const Schedule schedule = sample_schedule();
  const ScheduleArena arena(schedule);
  EXPECT_EQ(arena.task_count(), schedule.tasks().size());
  EXPECT_EQ(arena.clusters().size(), schedule.clusters().size());
  EXPECT_EQ(arena.meta(), schedule.meta());
  // The materialized schedule is byte-identical on the wire.
  EXPECT_EQ(io::write_schedule_xml(arena.to_schedule()),
            io::write_schedule_xml(schedule));
}

TEST(ScheduleArena, ContentHashMatchesTaskIndex) {
  for (const Schedule& s :
       {sample_schedule(), random_schedule(500, 7), Schedule{}}) {
    const ScheduleArena arena(s);
    EXPECT_EQ(arena.content_hash(), TaskIndex::hash_schedule(s));
  }
}

TEST(ScheduleArena, BoundsAndPartitionsMatchSchedule) {
  const Schedule schedule = random_schedule(300, 11);
  const ScheduleArena arena(schedule);

  ASSERT_TRUE(arena.time_range().has_value());
  ASSERT_TRUE(schedule.time_range().has_value());
  EXPECT_EQ(arena.time_range()->begin, schedule.time_range()->begin);
  EXPECT_EQ(arena.time_range()->end, schedule.time_range()->end);

  for (const auto& cluster : schedule.clusters()) {
    const auto a = arena.cluster_time_range(cluster.id);
    const auto s = schedule.cluster_time_range(cluster.id);
    ASSERT_EQ(a.has_value(), s.has_value()) << cluster.id;
    if (a) {
      EXPECT_EQ(a->begin, s->begin);
      EXPECT_EQ(a->end, s->end);
    }

    // Cluster partition == tasks_in_cluster's scan result.
    const auto* part = arena.cluster_tasks(cluster.id);
    const auto scanned = schedule.tasks_in_cluster(cluster.id);
    ASSERT_NE(part, nullptr);
    ASSERT_EQ(part->size(), scanned.size());
    for (std::size_t i = 0; i < scanned.size(); ++i) {
      EXPECT_EQ(&schedule.tasks()[(*part)[i]], scanned[i]);
    }
  }
  EXPECT_EQ(arena.cluster_tasks(999), nullptr);
}

TEST(ScheduleArena, ValidateAgreesWithScheduleValidate) {
  // Valid schedules pass both.
  ScheduleArena ok(sample_schedule());
  EXPECT_NO_THROW(ok.validate());

  // Each invalid shape must throw ValidationError columnarly too. The
  // builder validates on build(), so assemble via Schedule directly.
  auto make = [](auto&& mutate) {
    Schedule s;
    s.add_cluster(0, "c0", 4);
    Task t("x", "computation", 0.0, 1.0);
    Configuration cfg;
    cfg.cluster_id = 0;
    cfg.hosts.push_back(HostRange{0, 2});
    t.add_configuration(cfg);
    s.add_task(t);
    mutate(&s);
    return s;
  };

  // Host range past the cluster size.
  const Schedule bad_host = make([](Schedule* s) {
    Task t("y", "computation", 0.0, 1.0);
    Configuration cfg;
    cfg.cluster_id = 0;
    cfg.hosts.push_back(HostRange{3, 2});
    t.add_configuration(cfg);
    s->add_task(t);
  });
  EXPECT_THROW(bad_host.validate(), ValidationError);
  EXPECT_THROW(ScheduleArena(bad_host).validate(), ValidationError);

  // Unknown cluster.
  const Schedule bad_cluster = make([](Schedule* s) {
    Task t("y", "computation", 0.0, 1.0);
    Configuration cfg;
    cfg.cluster_id = 7;
    cfg.hosts.push_back(HostRange{0, 1});
    t.add_configuration(cfg);
    s->add_task(t);
  });
  EXPECT_THROW(bad_cluster.validate(), ValidationError);
  EXPECT_THROW(ScheduleArena(bad_cluster).validate(), ValidationError);

  // end < start.
  const Schedule bad_time = make([](Schedule* s) {
    Task t("y", "computation", 2.0, 1.0);
    Configuration cfg;
    cfg.cluster_id = 0;
    cfg.hosts.push_back(HostRange{0, 1});
    t.add_configuration(cfg);
    s->add_task(t);
  });
  EXPECT_THROW(bad_time.validate(), ValidationError);
  EXPECT_THROW(ScheduleArena(bad_time).validate(), ValidationError);

  // Duplicate task id.
  const Schedule dup_id = make([](Schedule* s) {
    Task t("x", "computation", 2.0, 3.0);
    Configuration cfg;
    cfg.cluster_id = 0;
    cfg.hosts.push_back(HostRange{0, 1});
    t.add_configuration(cfg);
    s->add_task(t);
  });
  EXPECT_THROW(dup_id.validate(), ValidationError);
  EXPECT_THROW(ScheduleArena(dup_id).validate(), ValidationError);
}

TEST(ScheduleArena, AppendMatchesFreshBuild) {
  const Schedule full = random_schedule(400, 21);
  // Base arena over the first 300 tasks.
  Schedule base_schedule;
  for (const auto& c : full.clusters()) {
    base_schedule.add_cluster(c.id, c.name, c.hosts);
  }
  for (const auto& [k, v] : full.meta()) base_schedule.set_meta(k, v);
  for (std::size_t i = 0; i < 300; ++i) {
    base_schedule.add_task(full.tasks()[i]);
  }

  ScheduleArena grown(base_schedule);
  grown.validate();  // writes nothing: the first append builds the id table
  grown.append(events_for(full, 300));

  const ScheduleArena fresh(full);
  EXPECT_EQ(grown.task_count(), fresh.task_count());
  EXPECT_EQ(grown.content_hash(), fresh.content_hash());
  EXPECT_EQ(grown.tasks_hash(), fresh.tasks_hash());
  EXPECT_EQ(io::write_schedule_xml(grown.to_schedule()),
            io::write_schedule_xml(full));

  for (const auto& cluster : full.clusters()) {
    const auto* gp = grown.cluster_tasks(cluster.id);
    const auto* fp = fresh.cluster_tasks(cluster.id);
    ASSERT_EQ(gp != nullptr, fp != nullptr);
    if (gp) {
      EXPECT_EQ(*gp, *fp) << cluster.id;
    }

    const auto gr = grown.cluster_time_range(cluster.id);
    const auto fr = fresh.cluster_time_range(cluster.id);
    ASSERT_EQ(gr.has_value(), fr.has_value());
    if (gr) {
      EXPECT_EQ(gr->begin, fr->begin);
      EXPECT_EQ(gr->end, fr->end);
    }

    // Incrementally maintained density == freshly built density.
    const auto* gd = grown.density(cluster.id);
    const auto* fd = fresh.density(cluster.id);
    ASSERT_EQ(gd != nullptr, fd != nullptr);
    if (gd) {
      EXPECT_EQ(gd->origin, fd->origin);
      EXPECT_EQ(gd->bin_width, fd->bin_width);
      EXPECT_EQ(gd->bins, fd->bins);
    }
  }
}

TEST(ScheduleArena, AppendRejectsBadEventsLeavingArenaUntouched) {
  ScheduleArena arena(sample_schedule());
  arena.validate();
  const std::uint64_t hash = arena.content_hash();
  const std::size_t count = arena.task_count();
  const std::uint64_t version = arena.version();

  auto event = [](std::string id, double s, double e, int cluster, int h0,
                  int nb) {
    ScheduleArena::Event ev;
    ev.id = std::move(id);
    ev.type = "computation";
    ev.start = s;
    ev.end = e;
    ev.cluster_id = cluster;
    ev.host_start = h0;
    ev.host_nb = nb;
    return ev;
  };

  // Duplicate id (against the existing rows, via the persistent table).
  EXPECT_THROW(arena.append({event("a", 10, 11, 0, 0, 1)}), ValidationError);
  // Host range out of bounds.
  EXPECT_THROW(arena.append({event("z1", 10, 11, 0, 7, 3)}), ValidationError);
  // Unknown cluster.
  EXPECT_THROW(arena.append({event("z2", 10, 11, 9, 0, 1)}), ValidationError);
  // end < start.
  EXPECT_THROW(arena.append({event("z3", 11, 10, 0, 0, 1)}), ValidationError);
  // Duplicate id *within* the batch.
  EXPECT_THROW(
      arena.append({event("z4", 1, 2, 0, 0, 1), event("z4", 3, 4, 0, 2, 1)}),
      ValidationError);

  EXPECT_EQ(arena.content_hash(), hash);
  EXPECT_EQ(arena.task_count(), count);
  EXPECT_EQ(arena.version(), version);

  // And a good append still works afterwards.
  arena.append({event("z5", 10, 11, 0, 0, 2)});
  EXPECT_EQ(arena.task_count(), count + 1);
  EXPECT_EQ(arena.version(), version + 1);
}

TEST(TaskIndexArena, ExtensionMatchesFreshIndex) {
  const Schedule full = random_schedule(350, 31);
  Schedule base_schedule;
  for (const auto& c : full.clusters()) {
    base_schedule.add_cluster(c.id, c.name, c.hosts);
  }
  for (std::size_t i = 0; i < 250; ++i) {
    base_schedule.add_task(full.tasks()[i]);
  }

  ScheduleArena arena(base_schedule);
  arena.validate();
  arena.append(events_for(full, 250));

  const TaskIndex base(base_schedule);
  const TaskIndex extended(base, arena, 250);
  const TaskIndex fresh(full);

  EXPECT_EQ(extended.task_count(), fresh.task_count());
  EXPECT_EQ(extended.content_hash(), fresh.content_hash());
  EXPECT_EQ(extended.tasks_hash(), fresh.tasks_hash());

  // Same flattened geometry per cluster (order inside flatten() is the
  // canonical sorted form).
  const auto fe = extended.flatten();
  const auto ff = fresh.flatten();
  ASSERT_EQ(fe.size(), ff.size());
  for (std::size_t c = 0; c < ff.size(); ++c) {
    EXPECT_EQ(fe[c].cluster_id, ff[c].cluster_id);
    ASSERT_EQ(fe[c].entries.size(), ff[c].entries.size());
    for (std::size_t i = 0; i < ff[c].entries.size(); ++i) {
      EXPECT_EQ(fe[c].entries[i].begin, ff[c].entries[i].begin);
      EXPECT_EQ(fe[c].entries[i].end, ff[c].entries[i].end);
      EXPECT_EQ(fe[c].entries[i].task, ff[c].entries[i].task);
      EXPECT_EQ(fe[c].entries[i].host_start, ff[c].entries[i].host_start);
      EXPECT_EQ(fe[c].entries[i].host_end, ff[c].entries[i].host_end);
    }
    EXPECT_EQ(fe[c].max_end, ff[c].max_end);
  }

  // Cluster partitions agree too.
  for (const auto& cluster : full.clusters()) {
    EXPECT_EQ(extended.cluster_tasks(cluster.id),
              fresh.cluster_tasks(cluster.id));
  }
}

}  // namespace
}  // namespace jedule::model
