#include "jedule/model/task_view.hpp"

#include <algorithm>
#include <map>

#include "jedule/util/error.hpp"
#include "jedule/util/parallel.hpp"

namespace jedule::model {

namespace {

const Schedule& empty_schedule() {
  static const Schedule kEmpty;
  return kEmpty;
}

std::string task_name(std::string_view id) {
  return "task '" + std::string(id) + "'";
}

// The host ranges of one configuration on `cluster`.
void check_hosts(std::string_view id, const Cluster& cluster,
                 std::span<const HostRange> hosts) {
  if (hosts.empty()) {
    throw ValidationError(task_name(id) +
                          " has a configuration without hosts");
  }
  // Disjoint used-host intervals [start, end), coalesced on insert. A range
  // overlapping earlier ones reports the smallest overlapped host. A
  // single range (the common case by far) cannot repeat a host, so the
  // interval map is only kept for several ranges.
  std::map<int, int> used;
  for (const HostRange& range : hosts) {
    if (range.nb <= 0) {
      throw ValidationError(task_name(id) + " has a host range with nb <= 0");
    }
    if (range.start < 0 || range.start + range.nb > cluster.hosts) {
      throw ValidationError(task_name(id) + " host range [" +
                            std::to_string(range.start) + ", " +
                            std::to_string(range.start + range.nb) +
                            ") exceeds cluster " + std::to_string(cluster.id) +
                            " size " + std::to_string(cluster.hosts));
    }
    if (hosts.size() == 1) break;
    const int start = range.start;
    const int end = range.start + range.nb;
    int dup = -1;
    auto next = used.upper_bound(start);
    if (next != used.begin() && std::prev(next)->second > start) {
      dup = start;
    } else if (next != used.end() && next->first < end) {
      dup = next->first;
    }
    if (dup >= 0) {
      throw ValidationError(task_name(id) + " lists host " +
                            std::to_string(dup) + " of cluster " +
                            std::to_string(cluster.id) + " twice");
    }
    int merged_start = start;
    int merged_end = end;
    if (next != used.begin() && std::prev(next)->second == start) {
      auto prev = std::prev(next);
      merged_start = prev->first;
      used.erase(prev);
    }
    if (next != used.end() && next->first == end) {
      merged_end = next->second;
      used.erase(next);
    }
    used[merged_start] = merged_end;
  }
}

}  // namespace

TaskCheck::TaskCheck(const std::vector<Cluster>& clusters) {
  for (const Cluster& c : clusters) by_id_.emplace_back(c.id, &c);
  std::sort(by_id_.begin(), by_id_.end());
}

void TaskCheck::check_all(std::string_view id, bool repeated, Time start,
                          Time end, const ConfigRange& configs) {
  if (id.empty()) {
    throw ValidationError("task with empty id");
  }
  if (repeated) {
    throw ValidationError("duplicate task id '" + std::string(id) + "'");
  }
  if (!(end >= start)) {
    throw ValidationError(task_name(id) + " has end_time " +
                          std::to_string(end) + " before start_time " +
                          std::to_string(start));
  }
  if (configs.size() == 0) {
    throw ValidationError(task_name(id) + " has no configuration");
  }
  for (const ConfigRef cfg : configs) {
    // Consecutive configurations mostly name the same cluster.
    if (cached_ == nullptr || cfg.cluster_id != cached_->id) {
      const auto it = std::lower_bound(
          by_id_.begin(), by_id_.end(), cfg.cluster_id,
          [](const auto& entry, int cid) { return entry.first < cid; });
      if (it == by_id_.end() || it->first != cfg.cluster_id) {
        throw ValidationError(task_name(id) +
                              " references unknown cluster " +
                              std::to_string(cfg.cluster_id));
      }
      cached_ = it->second;
    }
    check_hosts(id, *cached_, cfg.hosts);
  }
}

TaskView::TaskView() : TaskView(empty_schedule()) {}

TaskView::TaskView(const Schedule& schedule)
    : schedule_(&schedule),
      rows_(schedule.tasks().data()),
      size_(schedule.tasks().size()) {}

TaskView::TaskView(const ScheduleArena& arena)
    : aos_(false),
      arena_(&arena),
      cols_(arena.columns()),
      types_(arena.interned_types().data()),
      size_(arena.task_count()) {}

std::optional<std::string_view> ColumnRows::property(
    std::size_t i, std::string_view key) const {
  for (std::size_t p = cols->prop_off[i]; p < cols->prop_off[i + 1]; ++p) {
    const std::uint64_t* s = cols->prop_slices + 4 * p;
    if (std::string_view(cols->prop_pool + s[0], s[1]) == key) {
      return std::string_view(cols->prop_pool + s[2], s[3]);
    }
  }
  return std::nullopt;
}

Task TaskView::task(std::size_t i) const {
  return aos_ ? rows_[i] : arena_->task(i);
}

const std::vector<Cluster>& TaskView::clusters() const {
  return aos_ ? schedule_->clusters() : arena_->clusters();
}

const Cluster& TaskView::cluster_by_id(int id) const {
  if (aos_) return schedule_->cluster_by_id(id);
  for (const Cluster& c : arena_->clusters()) {
    if (c.id == id) return c;
  }
  throw ValidationError("unknown cluster id " + std::to_string(id));
}

bool TaskView::has_cluster(int id) const {
  if (aos_) return schedule_->has_cluster(id);
  for (const Cluster& c : arena_->clusters()) {
    if (c.id == id) return true;
  }
  return false;
}

const std::vector<std::pair<std::string, std::string>>& TaskView::meta()
    const {
  return aos_ ? schedule_->meta() : arena_->meta();
}

std::optional<TimeRange> TaskView::view_time_range(int cluster_id,
                                                   ViewMode mode) const {
  if (aos_) return schedule_->view_time_range(cluster_id, mode);
  if (mode == ViewMode::kScaled) {
    if (const auto local = arena_->cluster_time_range(cluster_id)) {
      return local;
    }
  }
  return arena_->time_range();
}

void TaskView::validate(int threads) const {
  const std::uint32_t duplicate = visit([&](const auto& rows) {
    return IdTable(rows, size_, threads).first_duplicate();
  });
  check(threads, duplicate);
}

void TaskView::validate(int threads, const IdTable& ids) const {
  check(threads, ids.first_duplicate());
}

void TaskView::validate_except_ids() const { check(1, IdTable::kMissing); }

void TaskView::check(int threads, std::uint32_t duplicate) const {
  if (clusters().empty()) {
    throw ValidationError("a schedule requires at least one cluster");
  }
  visit([&](const auto& rows) {
    const auto check_tasks = [&](std::size_t first, std::size_t last) {
      TaskCheck task(clusters());
      for (std::size_t i = first; i < last; ++i) {
        task.check(rows.id(i), i == duplicate, rows.start(i), rows.end(i),
                   ConfigRange(rows.configs(i)));
      }
    };
    constexpr std::size_t kBlock = IdTable::kBlock;
    if (threads <= 1 || size_ < 2 * kBlock) return check_tasks(0, size_);
    // Blocks partition the task order, so the lowest failing block, whose
    // error parallel_for rethrows, holds the first violation.
    util::parallel_for((size_ + kBlock - 1) / kBlock, threads,
                       [&](std::size_t b) {
                         check_tasks(b * kBlock,
                                     std::min(size_, (b + 1) * kBlock));
                       });
  });
  for_each_dependency([n = size_](std::uint32_t src, std::uint32_t dst,
                                  double data) {
    check_dependency(src, dst, data, n);
  });
}

void check_dependency(std::uint32_t src, std::uint32_t dst, double data,
                      std::size_t tasks) {
  const auto edge = [&] {
    return "dependency " + std::to_string(src) + " -> " + std::to_string(dst);
  };
  if (src >= tasks || dst >= tasks) {
    throw ValidationError(edge() + " references a task index out of range (" +
                          std::to_string(tasks) + " tasks)");
  }
  if (src >= dst) {
    throw ValidationError(edge() +
                          " must point forward in task order (src < dst)");
  }
  if (!(data >= 0)) {
    throw ValidationError(edge() + " has negative data " +
                          std::to_string(data));
  }
}

CriticalPath critical_path(const TaskView& tasks) {
  constexpr std::uint32_t kNone = 0xFFFFFFFFu;
  const std::size_t n = tasks.size();
  // Predecessor lists grouped by destination, each in insertion order.
  std::vector<std::size_t> off(n + 1, 0);
  tasks.for_each_dependency(
      [&](std::uint32_t, std::uint32_t dst, double) { ++off[dst + 1]; });
  for (std::size_t i = 0; i < n; ++i) off[i + 1] += off[i];
  std::vector<std::uint32_t> src(tasks.dep_count());
  {
    std::vector<std::size_t> cur(off.begin(), off.end() - 1);
    tasks.for_each_dependency([&](std::uint32_t s, std::uint32_t dst,
                                  double) { src[cur[dst]++] = s; });
  }
  CriticalPath out;
  out.finish.resize(n);
  out.via.assign(n, kNone);
  double best_time = -1.0;
  std::uint32_t best = kNone;
  tasks.visit([&](const auto& rows) {
    for (std::size_t i = 0; i < n; ++i) {
      double start = 0.0;
      for (std::size_t k = off[i]; k < off[i + 1]; ++k) {
        if (out.finish[src[k]] > start) {
          start = out.finish[src[k]];
          out.via[i] = src[k];
        }
      }
      out.finish[i] = start + (rows.end(i) - rows.start(i));
      if (out.finish[i] > best_time) {
        best_time = out.finish[i];
        best = static_cast<std::uint32_t>(i);
      }
    }
  });
  if (n > 0) out.time = best_time;
  for (std::uint32_t v = best; v != kNone; v = out.via[v]) {
    out.tasks.push_back(v);
  }
  std::reverse(out.tasks.begin(), out.tasks.end());
  return out;
}

}  // namespace jedule::model
