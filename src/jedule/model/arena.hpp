#pragma once

// model::ScheduleArena — the columnar (struct-of-arrays) twin of the AoS
// Schedule (DESIGN.md §4h). Task fields live in contiguous parallel
// columns: start/end times, interned type ids, task-id bytes in one string
// pool addressed by an offset column, per-task configuration spans into a
// flat (cluster, host-range) table, and property key/value slices into a
// second string pool. Columns are either heap vectors or zero-copy views
// into an mmapped `.jbin` snapshot (io/snapshot.hpp); the first append to
// a mapped arena copies the columns out once (copy-on-append) and stays
// heap-backed from then on.
//
// On top of the raw columns the arena maintains derived structures kept
// consistent incrementally across append():
//   * per-cluster task partitions (sorted task indices) — the replacement
//     for Schedule::tasks_in_cluster's O(n) scan,
//   * per-cluster and global time bounds (O(1) lookups for the layout's
//     panel ranges),
//   * per-cluster LOD density histograms over fixed time bins,
//   * the task-id table (model::IdTable), built by the first append() and
//     extended by every later one, so appending checks duplicate ids and
//     resolves dependency ids in O(delta),
//   * the running FNV content hash, byte-identical to
//     TaskIndex::hash_schedule on the materialized schedule, extended in
//     O(delta) per append.
//
// The AoS Schedule stays the construction and differential-reference
// path: `ScheduleArena(schedule)` builds the columns, `to_schedule()`
// materializes them back, and the test suite cross-checks hashes,
// partitions and bounds between the two representations. Both forms are
// validated by the one check body of TaskView::validate.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "jedule/model/id_table.hpp"
#include "jedule/model/schedule.hpp"

namespace jedule::model {

namespace detail {

/// One arena column: either an owned heap vector or a borrowed span into
/// an mmapped snapshot. owned() copies a borrowed span out (once), so
/// append paths can mutate.
template <typename T>
class Column {
 public:
  const T* data() const { return mapped_ ? mapped_ : vec_.data(); }
  std::size_t size() const { return mapped_ ? mapped_size_ : vec_.size(); }
  bool empty() const { return size() == 0; }
  bool mapped() const { return mapped_ != nullptr; }
  T operator[](std::size_t i) const { return data()[i]; }

  void set_mapped(const T* p, std::size_t n) {
    mapped_ = p;
    mapped_size_ = n;
    vec_.clear();
  }
  std::vector<T>& owned() {
    if (mapped_ != nullptr) {
      vec_.assign(mapped_, mapped_ + mapped_size_);
      mapped_ = nullptr;
      mapped_size_ = 0;
    }
    return vec_;
  }

  std::size_t heap_bytes() const { return vec_.capacity() * sizeof(T); }
  std::size_t mapped_bytes() const {
    return mapped_ ? mapped_size_ * sizeof(T) : 0;
  }

 private:
  const T* mapped_ = nullptr;
  std::size_t mapped_size_ = 0;
  std::vector<T> vec_;
};

}  // namespace detail

class ScheduleArena {
 public:
  /// One appended task: a single contiguous allocation on one cluster —
  /// the shape live traces produce (`--follow`, POST /schedules/:id/events).
  struct Event {
    std::string id;
    std::string type;
    Time start = 0;
    Time end = 0;
    int cluster_id = 0;
    int host_start = 0;
    int host_nb = 1;
    /// Predecessor task ids this event depends on, each with the data
    /// volume transferred. A dep may name an existing task or an earlier
    /// event of the same batch; unknown ids fail validation.
    std::vector<std::pair<std::string, double>> deps;
  };

  /// Per-cluster LOD density histogram: bins[k] counts the tasks of the
  /// cluster whose *start* time falls in [origin + k*bin_width,
  /// origin + (k+1)*bin_width). Start counts (unlike overlap counts) are
  /// additive under bin merges, so append() re-buckets a histogram the
  /// cluster outgrew without rescanning the columns; the bin geometry is a
  /// pure function of the cluster's current time bounds, making an
  /// incrementally maintained histogram identical to a freshly built one.
  struct Density {
    Time origin = 0;
    Time bin_width = 0;
    std::vector<std::uint32_t> bins;
  };

  /// Raw column package, the snapshot loader's construction input. Every
  /// column may be mapped (zero-copy spans kept alive by `owner`) or
  /// owned. The constructor bounds-checks all offsets/ids (ParseError on
  /// inconsistency) before deriving anything, so corrupted snapshots fail
  /// cleanly instead of faulting.
  struct Raw {
    detail::Column<double> start, end;
    detail::Column<std::uint32_t> type_id;
    detail::Column<std::uint64_t> id_off;  // n+1 offsets into id_pool
    detail::Column<char> id_pool;
    detail::Column<std::uint32_t> cfg_off;  // n+1 offsets into cfg_cluster
    detail::Column<std::int32_t> cfg_cluster;
    detail::Column<std::uint32_t> range_off;  // m+1 offsets into ranges
    detail::Column<HostRange> ranges;
    detail::Column<std::uint32_t> prop_off;  // n+1 offsets (property count)
    // 4 words per property: key_off, key_len, val_off, val_len (prop_pool).
    detail::Column<std::uint64_t> prop_slices;
    detail::Column<char> prop_pool;
    // CSR dependency columns, grouped by destination task (predecessor
    // lists). All-empty when the snapshot carries no edge sections.
    detail::Column<std::uint64_t> dep_off;  // n+1 offsets, or empty
    detail::Column<std::uint32_t> dep_src;
    detail::Column<double> dep_data;

    std::vector<std::string> types;  // interned type table
    std::vector<Cluster> clusters;
    std::vector<std::pair<std::string, std::string>> meta;

    std::uint64_t tasks_hash = 0;  // running hash, pre task-count fold
    std::uint64_t edges_hash = 0;  // running CSR edge hash (0 if no edges)
    std::shared_ptr<const void> owner;   // the file mapping, when mapped
    std::size_t mapped_file_bytes = 0;   // accounting (mmap-resident)
  };

  /// Borrowed read-only view of every column (snapshot writer, tests,
  /// columnar sweeps).
  struct ColumnsView {
    std::size_t tasks = 0, configs = 0, ranges_count = 0, props = 0;
    const double* start = nullptr;
    const double* end = nullptr;
    const std::uint32_t* type_id = nullptr;
    const std::uint64_t* id_off = nullptr;
    const char* id_pool = nullptr;
    std::size_t id_pool_size = 0;
    const std::uint32_t* cfg_off = nullptr;
    const std::int32_t* cfg_cluster = nullptr;
    const std::uint32_t* range_off = nullptr;
    const HostRange* ranges = nullptr;
    const std::uint32_t* prop_off = nullptr;
    const std::uint64_t* prop_slices = nullptr;
    const char* prop_pool = nullptr;
    std::size_t prop_pool_size = 0;
    std::size_t deps = 0;                      // edge count
    const std::uint64_t* dep_off = nullptr;    // n+1, or nullptr if no edges
    const std::uint32_t* dep_src = nullptr;
    const double* dep_data = nullptr;
  };

  /// Columnarizes `schedule` (one pass; the schedule is not retained).
  /// Throws ValidationError for an edge past the last task, which the
  /// columns cannot hold. A known `tasks_hash` (TaskIndex::hash_tasks of
  /// this schedule) is adopted instead of hashing every row again.
  explicit ScheduleArena(const Schedule& schedule,
                         std::optional<std::uint64_t> tasks_hash = {});

  /// Adopts loaded columns; throws ParseError on structural inconsistency
  /// (out-of-range offsets, type ids past the table, ...).
  explicit ScheduleArena(Raw raw);

  std::size_t task_count() const { return start_.size(); }
  ColumnsView columns() const;

  std::string_view task_id(std::size_t i) const;
  std::string_view task_type(std::size_t i) const;

  /// Total precedence-edge count (CSR, grouped by destination task).
  std::size_t dep_count() const { return dep_src_.size(); }
  const std::uint32_t* dep_src() const { return dep_src_.data(); }
  const double* dep_data() const { return dep_data_.data(); }

  const std::vector<Cluster>& clusters() const { return clusters_; }
  const std::vector<std::pair<std::string, std::string>>& meta() const {
    return meta_;
  }
  const std::vector<std::string>& types() const { return types_; }
  /// types() through detail::intern_task_type, by type id.
  const std::vector<const std::string*>& interned_types() const {
    return interned_types_;
  }

  std::optional<TimeRange> time_range() const;
  /// O(1): bounds of the tasks with a configuration in `cluster_id`,
  /// maintained across append(); nullopt if none.
  std::optional<TimeRange> cluster_time_range(int cluster_id) const;
  /// Sorted task indices with a configuration in `cluster_id`; nullptr if
  /// none (or unknown cluster).
  const std::vector<std::uint32_t>* cluster_tasks(int cluster_id) const;
  /// Density histogram for `cluster_id`; nullptr if the cluster is empty.
  const Density* density(int cluster_id) const;

  /// Byte-identical to TaskIndex::hash_schedule(to_schedule()). Covers
  /// the task columns only (edges excluded) so task-only tooling — the
  /// snapshot header, TaskIndex — keeps matching historical hashes.
  std::uint64_t content_hash() const;
  /// content_hash() when the arena has no edges (so legacy ids and dedup
  /// keys are unchanged), else content_hash() folded with the running
  /// edge hash and edge count. This is the invalidation key for caches
  /// whose output depends on edges (TileCache, serve ETags).
  std::uint64_t combined_hash() const;
  std::uint64_t tasks_hash() const { return tasks_hash_; }
  /// Running FNV over the CSR edge triples (src, dst, data), extended in
  /// O(delta) per append.
  std::uint64_t edges_hash() const { return edges_hash_; }
  /// Bumped once per successful append().
  std::uint64_t version() const { return version_; }

  /// TaskView::validate over the columns: the invariants and messages of
  /// Schedule::validate. Writes nothing to the arena.
  void validate() const;

  /// Row i as an AoS Task (one row of to_schedule()).
  Task task(std::size_t i) const;

  /// Materializes the AoS schedule, for consumers that still need it
  /// (info, convert, profile, full-view composite synthesis); renders read
  /// the columns through model::TaskView instead.
  Schedule to_schedule() const;

  /// Appends `events` as new tasks: validates them (duplicate ids via the
  /// persistent id table, host bounds, time sanity) without touching the
  /// existing rows, extends every column and derived structure, and
  /// continues the content hash — O(delta) total, after the first append,
  /// which builds the id table in O(n). Throws ValidationError leaving the
  /// arena unchanged.
  void append(const std::vector<Event>& events);

  std::size_t heap_bytes() const;
  std::size_t mmap_bytes() const;
  bool mmap_backed() const;

 private:
  struct PerCluster {
    TimeRange range{0, 0};
    bool any = false;
    std::vector<std::uint32_t> tasks;  // ascending
    Density density;
  };

  // Reads task ids for id_table_.
  struct IdRows {
    const ScheduleArena* arena;
    std::string_view id(std::size_t i) const { return arena->task_id(i); }
  };

  void check_structure() const;  // throws ParseError
  void build_derived();          // partitions, bounds, density, id table
  void ensure_owned();           // copy-on-append out of the mapping
  void bump_density(PerCluster* pc, Time start);
  void hash_row(std::size_t i);  // folds row i into tasks_hash_
  void hash_edge(std::uint32_t src, std::uint32_t dst, double data);
  void materialize_dep_offsets();  // dep_off_: empty -> task_count()+1 zeros
  void intern_new_types();         // extends interned_types_ to types_

  detail::Column<double> start_, end_;
  detail::Column<std::uint32_t> type_id_;
  detail::Column<std::uint64_t> id_off_;
  detail::Column<char> id_pool_;
  detail::Column<std::uint32_t> cfg_off_;
  detail::Column<std::int32_t> cfg_cluster_;
  detail::Column<std::uint32_t> range_off_;
  detail::Column<HostRange> ranges_;
  detail::Column<std::uint32_t> prop_off_;
  detail::Column<std::uint64_t> prop_slices_;
  detail::Column<char> prop_pool_;
  // CSR predecessor lists grouped by destination task. dep_off_ is either
  // empty (the arena never saw an edge) or exactly task_count()+1 offsets;
  // the first appended edge materializes the offsets, so edge-free arenas
  // pay nothing.
  detail::Column<std::uint64_t> dep_off_;
  detail::Column<std::uint32_t> dep_src_;
  detail::Column<double> dep_data_;

  std::vector<std::string> types_;
  std::vector<const std::string*> interned_types_;  // parallel to types_
  std::vector<Cluster> clusters_;
  std::map<int, std::size_t> cluster_slot_;  // id -> clusters_ index
  std::vector<std::pair<std::string, std::string>> meta_;

  std::map<int, PerCluster> per_cluster_;
  TimeRange range_{0, 0};
  bool any_tasks_ = false;

  // Every task id, once the first append() has built it.
  IdTable id_table_;

  std::uint64_t tasks_hash_ = 0;
  std::uint64_t edges_hash_ = 0;
  std::uint64_t version_ = 0;
  std::shared_ptr<const void> owner_;
  std::size_t mapped_file_bytes_ = 0;
};

using ArenaPtr = std::shared_ptr<const ScheduleArena>;

}  // namespace jedule::model
