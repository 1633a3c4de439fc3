#pragma once

// Core schedule data model (paper Sec. II.C.1).
//
// A Schedule consists of clusters C_j that partition the resource set P, and
// tasks v_i with a start time, a finish time, a user-chosen type, and one or
// more Configurations. Each configuration names a cluster and a possibly
// non-contiguous list of host ranges inside it; a task with configurations in
// several clusters spans clusters (e.g. an inter-cluster transfer).

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace jedule::model {

class IdTable;

using Time = double;

/// Contiguous run of hosts [start, start+nb) within one cluster, mirroring
/// the `<hosts start=".." nb=".."/>` element of the input format (Fig. 1).
struct HostRange {
  int start = 0;
  int nb = 0;

  friend bool operator==(const HostRange&, const HostRange&) = default;
};

/// Where (part of) a task runs: a cluster plus host ranges inside it.
struct Configuration {
  int cluster_id = 0;
  std::vector<HostRange> hosts;

  /// Total number of hosts covered (ranges are validated to be disjoint).
  int host_count() const;

  /// Expanded, ascending host indices.
  std::vector<int> host_list() const;

  friend bool operator==(const Configuration&, const Configuration&) = default;
};

namespace detail {
/// Global task-type pool. Task types ("computation", "transfer", ...) are
/// drawn from a tiny vocabulary even in million-task schedules, so every
/// Task stores one interned pointer instead of its own heap string. The
/// pool is append-only and thread-safe; returned pointers are stable for
/// the lifetime of the process.
const std::string* intern_task_type(std::string_view type);

inline const std::string* empty_task_type() {
  static const std::string* const kEmpty = intern_task_type(std::string_view());
  return kEmpty;
}
}  // namespace detail

class Task {
 public:
  Task() = default;
  Task(std::string id, std::string_view type, Time start, Time end)
      : id_(std::move(id)),
        type_(detail::intern_task_type(type)),
        start_(start),
        end_(end) {}

  const std::string& id() const { return id_; }
  void set_id(std::string id) { id_ = std::move(id); }

  const std::string& type() const { return *type_; }
  void set_type(std::string_view type) {
    type_ = detail::intern_task_type(type);
  }
  /// Bulk-materialization fast path: adopts an already-interned pointer
  /// (must come from detail::intern_task_type) without a pool lookup.
  void set_interned_type(const std::string* type) { type_ = type; }

  Time start_time() const { return start_; }
  Time end_time() const { return end_; }
  Time duration() const { return end_ - start_; }
  void set_times(Time start, Time end) {
    start_ = start;
    end_ = end;
  }

  const std::vector<Configuration>& configurations() const { return configs_; }
  void add_configuration(Configuration c) { configs_.push_back(std::move(c)); }

  /// Convenience: single contiguous allocation on one cluster.
  void allocate(int cluster_id, int first_host, int host_count);

  /// Total hosts over all configurations.
  int total_hosts() const;

  /// Free-form per-task key/value pairs (extra `node_property` entries such
  /// as the owning user of a job, or the member list of a composite task).
  const std::vector<std::pair<std::string, std::string>>& properties() const {
    return properties_;
  }
  void set_property(std::string key, std::string value);
  std::optional<std::string_view> property(std::string_view key) const;

 private:
  std::string id_;
  const std::string* type_ = detail::empty_task_type();
  Time start_ = 0;
  Time end_ = 0;
  std::vector<Configuration> configs_;
  std::vector<std::pair<std::string, std::string>> properties_;
};

struct Cluster {
  int id = 0;
  std::string name;
  int hosts = 0;

  friend bool operator==(const Cluster&, const Cluster&) = default;
};

/// Inclusive-exclusive time window [begin, end).
struct TimeRange {
  Time begin = 0;
  Time end = 0;

  Time length() const { return end - begin; }
  friend bool operator==(const TimeRange&, const TimeRange&) = default;
};

/// Scaled view: each cluster panel spans its own local time bounds.
/// Aligned view: every panel spans the global bounds (paper Sec. II.C.3).
enum class ViewMode { kScaled, kAligned };

/// Precedence (communication) edge between two tasks, by task index. The
/// application model is a DAG of communicating tasks; edges always point
/// forward in task order (src < dst), which validate() enforces — the task
/// sequence is therefore a topological order and acyclicity comes for free.
struct Dependency {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  double data = 0;  ///< transferred volume (bytes or user units), >= 0

  friend bool operator==(const Dependency&, const Dependency&) = default;
};

class Schedule {
 public:
  /// Adds a cluster; ids must be unique. Returns the cluster index.
  std::size_t add_cluster(Cluster c);
  std::size_t add_cluster(int id, std::string name, int hosts);

  const std::vector<Cluster>& clusters() const { return clusters_; }
  const Cluster& cluster_by_id(int id) const;
  bool has_cluster(int id) const;

  /// Sum of host counts over all clusters (|P|).
  int total_hosts() const;

  /// Index of (cluster, host) on the global resource axis, clusters stacked
  /// in insertion order. Used by the composite sweep and the renderer.
  int global_resource_index(int cluster_id, int host) const;

  void add_task(Task t) { tasks_.push_back(std::move(t)); }
  /// The in-order merge of a chunked reader: appends every task of
  /// `parts`, part by part, exactly as add_task would. The task vector is
  /// sized once; each part moves into its slice and frees its own storage
  /// on a worker (util::parallel_for over `threads`).
  void append_tasks(std::vector<std::vector<Task>> parts, int threads);
  const std::vector<Task>& tasks() const { return tasks_; }
  std::vector<Task>& mutable_tasks() { return tasks_; }

  const Task* find_task(std::string_view id) const;

  /// Adds a precedence edge between two tasks by index. Edges must point
  /// forward in task order (src < dst); validated by validate().
  void add_dependency(std::uint32_t src, std::uint32_t dst, double data = 0) {
    deps_.push_back(Dependency{src, dst, data});
  }
  const std::vector<Dependency>& dependencies() const { return deps_; }
  std::vector<Dependency>& mutable_dependencies() { return deps_; }

  /// Schedule-level meta information (paper Sec. II.C.2), in file order.
  const std::vector<std::pair<std::string, std::string>>& meta() const {
    return meta_;
  }
  void set_meta(std::string key, std::string value);
  std::optional<std::string_view> meta_value(std::string_view key) const;

  /// Global time bounds over all tasks; nullopt for an empty schedule.
  std::optional<TimeRange> time_range() const;

  /// Local bounds of the tasks having at least one configuration in
  /// `cluster_id`; nullopt if none.
  std::optional<TimeRange> cluster_time_range(int cluster_id) const;

  /// Bounds a cluster panel should use under `mode` (falls back to the
  /// global range when the cluster is empty).
  std::optional<TimeRange> view_time_range(int cluster_id,
                                           ViewMode mode) const;

  /// Tasks with at least one configuration in the cluster. This is an
  /// O(n) scan over all tasks; hot paths that already hold a TaskIndex
  /// or ScheduleArena should use TaskIndex::cluster_tasks / the arena's
  /// per-cluster partitions, which answer the same query precomputed.
  std::vector<const Task*> tasks_in_cluster(int cluster_id) const;

  /// TaskView::validate over this schedule: throws jedule::ValidationError
  /// naming the first violation in task order, the same message at any
  /// `threads`.
  void validate(int threads = 1) const;
  /// validate() with the duplicate-id check answered by `ids`, a table
  /// built over exactly these tasks (a reader's edge-resolve table).
  void validate(int threads, const IdTable& ids) const;

 private:
  std::vector<Cluster> clusters_;
  std::map<int, std::size_t> cluster_index_;
  std::vector<Task> tasks_;
  std::vector<Dependency> deps_;
  std::vector<std::pair<std::string, std::string>> meta_;
};

}  // namespace jedule::model
