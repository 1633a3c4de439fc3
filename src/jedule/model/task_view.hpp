#pragma once

// model::TaskView — a non-owning read view over either resident form of a
// schedule: the AoS Schedule or the ScheduleArena columns (DESIGN.md §4m).
// The render layer reads tasks only through it, so a `.jbin` or appended
// engine entry renders straight from its columns and never builds the AoS
// form. Rows are named by task index, exactly as in Schedule::tasks().
//
// The viewed schedule must outlive the view and must not change while the
// view is in use: the view caches row and column pointers. Construction
// from a temporary does not compile.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "jedule/model/arena.hpp"
#include "jedule/model/id_table.hpp"
#include "jedule/model/schedule.hpp"

namespace jedule::model {

/// One configuration of a task: its cluster and its host ranges.
struct ConfigRef {
  int cluster_id = 0;
  std::span<const HostRange> hosts;
};

/// The configurations of one task, in order, read from either form.
class ConfigRange {
 public:
  explicit ConfigRange(const std::vector<Configuration>& configs)
      : aos_(configs.data()), n_(configs.size()) {}
  ConfigRange(const std::int32_t* cluster, const std::uint32_t* range_off,
              const HostRange* ranges, std::size_t first, std::size_t last)
      : cluster_(cluster + first),
        range_off_(range_off + first),
        ranges_(ranges),
        n_(last - first) {}

  std::size_t size() const { return n_; }
  ConfigRef operator[](std::size_t k) const {
    if (aos_ != nullptr) return {aos_[k].cluster_id, aos_[k].hosts};
    return {cluster_[k],
            {ranges_ + range_off_[k], ranges_ + range_off_[k + 1]}};
  }

  class iterator {
   public:
    iterator(const ConfigRange* range, std::size_t k) : range_(range), k_(k) {}
    ConfigRef operator*() const { return (*range_)[k_]; }
    iterator& operator++() {
      ++k_;
      return *this;
    }
    bool operator==(const iterator&) const = default;

   private:
    const ConfigRange* range_;
    std::size_t k_;
  };
  iterator begin() const { return {this, 0}; }
  iterator end() const { return {this, n_}; }

 private:
  const Configuration* aos_ = nullptr;
  const std::int32_t* cluster_ = nullptr;
  const std::uint32_t* range_off_ = nullptr;
  const HostRange* ranges_ = nullptr;
  std::size_t n_ = 0;
};

/// Per-index reads of the AoS form. TaskView::visit hands generic code
/// this or ColumnRows; both spell the same reads, so a loop written once
/// runs over either form without a per-row branch.
struct AosRows {
  const Task* rows = nullptr;

  Time start(std::size_t i) const { return rows[i].start_time(); }
  Time end(std::size_t i) const { return rows[i].end_time(); }
  const std::string* type(std::size_t i) const { return &rows[i].type(); }
  std::string_view id(std::size_t i) const { return rows[i].id(); }
  const std::vector<Configuration>& configs(std::size_t i) const {
    return rows[i].configurations();
  }
  std::optional<std::string_view> property(std::size_t i,
                                           std::string_view key) const {
    return rows[i].property(key);
  }
};

/// Per-index reads of the arena columns (see AosRows).
struct ColumnRows {
  const ScheduleArena::ColumnsView* cols = nullptr;
  const std::string* const* types = nullptr;  // type id -> interned

  Time start(std::size_t i) const { return cols->start[i]; }
  Time end(std::size_t i) const { return cols->end[i]; }
  const std::string* type(std::size_t i) const {
    return types[cols->type_id[i]];
  }
  std::string_view id(std::size_t i) const {
    const std::uint64_t b = cols->id_off[i];
    return {cols->id_pool + b,
            static_cast<std::size_t>(cols->id_off[i + 1] - b)};
  }
  ConfigRange configs(std::size_t i) const {
    return {cols->cfg_cluster, cols->range_off, cols->ranges, cols->cfg_off[i],
            cols->cfg_off[i + 1]};
  }
  std::optional<std::string_view> property(std::size_t i,
                                           std::string_view key) const;
};

class TaskView {
 public:
  /// An empty schedule (no clusters, no tasks).
  TaskView();
  TaskView(const Schedule& schedule);      // NOLINT: implicit by design
  TaskView(const ScheduleArena& arena);    // NOLINT: implicit by design
  TaskView(Schedule&&) = delete;
  TaskView(ScheduleArena&&) = delete;

  std::size_t size() const { return size_; }

  /// Calls fn(rows) with the AosRows or ColumnRows of the viewed form.
  template <typename Fn>
  decltype(auto) visit(Fn&& fn) const {
    if (aos_) return fn(AosRows{rows_});
    return fn(ColumnRows{&cols_, types_});
  }

  // Single reads, one form test each; loops over many rows use visit.
  Time start(std::size_t i) const {
    return visit([i](const auto& rows) { return rows.start(i); });
  }
  Time end(std::size_t i) const {
    return visit([i](const auto& rows) { return rows.end(i); });
  }
  /// The interned type (detail::intern_task_type): equal types share one
  /// pointer in both forms.
  const std::string* type(std::size_t i) const {
    return visit([i](const auto& rows) { return rows.type(i); });
  }
  std::string_view id(std::size_t i) const {
    return visit([i](const auto& rows) { return rows.id(i); });
  }
  ConfigRange configs(std::size_t i) const {
    return aos_ ? ConfigRange(rows_[i].configurations())
                : ColumnRows{&cols_, types_}.configs(i);
  }
  /// Row i as an owned Task (on the arena: ScheduleArena::task).
  Task task(std::size_t i) const;

  const std::vector<Cluster>& clusters() const;
  /// Throws ValidationError for an unknown id.
  const Cluster& cluster_by_id(int id) const;
  bool has_cluster(int id) const;
  const std::vector<std::pair<std::string, std::string>>& meta() const;
  /// Schedule::view_time_range over either form.
  std::optional<TimeRange> view_time_range(int cluster_id,
                                           ViewMode mode) const;

  std::size_t dep_count() const {
    return aos_ ? schedule_->dependencies().size() : cols_.deps;
  }
  /// Calls fn(src, dst, data) once per precedence edge. The order may
  /// differ between the forms, but each destination's predecessors come
  /// in insertion order in both.
  template <typename Fn>
  void for_each_dependency(Fn&& fn) const {
    if (aos_) {
      for (const Dependency& d : schedule_->dependencies()) {
        fn(d.src, d.dst, d.data);
      }
      return;
    }
    if (cols_.dep_off == nullptr) return;
    for (std::size_t i = 0; i < size_; ++i) {
      for (std::uint64_t k = cols_.dep_off[i]; k < cols_.dep_off[i + 1]; ++k) {
        fn(cols_.dep_src[k], static_cast<std::uint32_t>(i), cols_.dep_data[k]);
      }
    }
  }

  /// Checks the schedule invariants of DESIGN.md §6: at least one
  /// cluster; per task a non-empty unique id, end_time >= start_time, and
  /// configurations on known clusters whose host ranges are non-empty,
  /// inside the cluster and listed once; every edge inside the task range,
  /// pointing forward (src < dst) with data >= 0. Throws ValidationError
  /// naming the first violation in task order, tasks before edges. The
  /// message is the same in both forms and at any `threads`; `threads` > 1
  /// checks a large schedule in IdTable::kBlock blocks on workers.
  void validate(int threads = 1) const;
  /// validate() with the duplicate-id check answered by `ids`, a table
  /// built over exactly these rows (a reader's edge-resolve table).
  void validate(int threads, const IdTable& ids) const;
  /// validate() without the duplicate-id check: the snapshot-load check.
  /// A `.jbin` was written from a validated schedule and its columns are
  /// CRC-covered, so a reopen does not hash its ids; the arena's first
  /// append builds its id table.
  void validate_except_ids() const;

  /// The viewed AoS schedule; nullptr when the view reads arena columns.
  const Schedule* schedule() const { return aos_ ? schedule_ : nullptr; }

 private:
  bool aos_ = true;
  const Schedule* schedule_ = nullptr;
  const Task* rows_ = nullptr;
  const ScheduleArena* arena_ = nullptr;
  ScheduleArena::ColumnsView cols_;
  const std::string* const* types_ = nullptr;  // arena type id -> interned
  std::size_t size_ = 0;

  // The one check body behind the three validate()s; the task whose index
  // is `duplicate` repeats an earlier task's id.
  void check(int threads, std::uint32_t duplicate) const;
};

/// The per-task checks of TaskView::validate, fed one task at a time in
/// task order; ScheduleArena::append runs them on its events.
class TaskCheck {
 public:
  explicit TaskCheck(const std::vector<Cluster>& clusters);
  /// Throws ValidationError naming the first invariant the task breaks;
  /// `repeated`: an earlier task has the same id.
  void check(std::string_view id, bool repeated, Time start, Time end,
             const ConfigRange& configs) {
    // The common valid task, one host range on the cluster of the task
    // before it, passes here without a call.
    if (!id.empty() && !repeated && end >= start && configs.size() == 1) {
      const ConfigRef cfg = configs[0];
      if (cached_ != nullptr && cfg.cluster_id == cached_->id &&
          cfg.hosts.size() == 1 && cfg.hosts[0].nb > 0 &&
          cfg.hosts[0].start >= 0 &&
          cfg.hosts[0].start + cfg.hosts[0].nb <= cached_->hosts) {
        return;
      }
    }
    check_all(id, repeated, start, end, configs);
  }

 private:
  void check_all(std::string_view id, bool repeated, Time start, Time end,
                 const ConfigRange& configs);

  std::vector<std::pair<int, const Cluster*>> by_id_;  // sorted by id
  const Cluster* cached_ = nullptr;  // the last cluster looked up
};

/// The edge checks of validate() for one edge of a schedule of `tasks`
/// tasks; throws ValidationError.
void check_dependency(std::uint32_t src, std::uint32_t dst, double data,
                      std::size_t tasks);

}  // namespace jedule::model
