#pragma once

// model::TaskIndex — immutable spatial index over (time interval x host
// range), built once per schedule and shared by the layout engine, the
// tile cache and Session::inspect (DESIGN.md "interactive frames").
//
// Per cluster, every (task configuration x host range) rectangle becomes
// one Entry in a flat array sorted by start time; an implicit balanced
// BST over that array stores the maximum end time of each subtree, so a
// window query visits O(log n + k) entries instead of scanning all
// tasks. Intersection is *closed* ([begin, end] against [t0, t1]):
// zero-duration tasks and tasks touching the window edge are reported,
// which over-approximates the renderer's half-open clipping — harmless,
// since non-painting boxes are dropped by the clip itself.
//
// A cluster's entries live in one or more immutable *segments*, each a
// sorted array with its own implicit BST. A full build produces a single
// segment; the O(delta) extension constructor shares the base index's
// segments untouched and adds one small segment holding only the new
// tasks, so appending to a million-task index never re-sorts the base.
// Segments may also point into an mmapped snapshot (DESIGN.md §4h)
// instead of heap vectors; `owner` keeps the backing storage alive.
// Queries visit every segment; result order stays unspecified, as before.
//
// The index is immutable after construction and safe to share across
// threads. It also records a content hash of the schedule (tasks, times,
// allocations, clusters) that the render::TileCache uses as a cache key.
// The hash folds the task count in *last*, so the running pre-count hash
// (`tasks_hash()`) can be extended with appended tasks in O(delta).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "jedule/model/schedule.hpp"

namespace jedule::model {

class ScheduleArena;

class TaskIndex {
 public:
  struct Entry {
    double begin = 0;
    double end = 0;
    int host_start = 0;  // inclusive host span [host_start, host_end]
    int host_end = 0;
    std::uint32_t task = 0;  // index into Schedule::tasks()
  };

  /// Empty index (no clusters, zero hash) — the placeholder state for
  /// two-phase construction (engine::ScheduleEntry); move-assign a real
  /// index over it before use.
  TaskIndex() = default;

  /// Builds the index in O(n log n). The schedule must outlive nothing —
  /// the index copies what it needs (times, host spans, task indices).
  /// `threads` > 1 collects entries in task blocks and sorts/augments the
  /// per-cluster segments on workers while the serial hash chain runs
  /// (util::parallel_for); the segments — and therefore every query
  /// result and the content hash — are identical at any thread count.
  /// A known `tasks_hash` (hash_tasks of this schedule, computed earlier)
  /// is adopted instead of hashing the tasks again.
  explicit TaskIndex(const Schedule& schedule, int threads = 1,
                     std::optional<std::uint64_t> tasks_hash = {});

  /// Full build read straight from the columns: the extension ctor below
  /// over an index of the arena's clusters and no tasks. The hash is the
  /// arena's running hash; nothing is rehashed.
  explicit TaskIndex(const ScheduleArena& arena);

  /// O(delta) extension: `base` indexed the first `first_new` tasks of
  /// `arena` (same clusters, same tasks, in the same order — only tasks
  /// appended at the end). Shares the base's segments and indexes only
  /// tasks [first_new, size), read straight from the columns, so the
  /// live-append path never materializes an AoS schedule. The content hash
  /// continues from the arena's running hash (byte-identical to hashing
  /// the materialized tasks).
  TaskIndex(const TaskIndex& base, const ScheduleArena& arena,
            std::size_t first_new);

  /// One pre-sorted, pre-augmented cluster loaded from a snapshot; the
  /// pointers typically alias an mmapped file kept alive by `Raw::owner`.
  struct RawCluster {
    int cluster_id = 0;
    const Entry* entries = nullptr;   // sorted by (begin, task)
    const double* max_end = nullptr;  // implicit-BST augmentation
    std::size_t count = 0;
  };

  /// Zero-copy construction input (the `.jbin` load path): trusted
  /// precomputed segments plus the recorded hashes and bounds.
  struct Raw {
    std::vector<RawCluster> clusters;
    std::shared_ptr<const void> owner;  // keeps the mapping alive
    std::size_t task_count = 0;
    std::optional<TimeRange> time_range;
    std::uint64_t content_hash = 0;
    std::uint64_t tasks_hash = 0;  // running hash, pre task-count fold
  };
  explicit TaskIndex(Raw raw);

  std::size_t task_count() const { return task_count_; }

  /// Entries indexed for `cluster_id` (0 for unknown clusters).
  std::size_t entry_count(int cluster_id) const;

  /// Global time bounds over all tasks; nullopt for an empty schedule.
  std::optional<TimeRange> time_range() const { return time_range_; }

  /// Calls `fn` for every entry of `cluster_id` whose closed interval
  /// [begin, end] intersects [t0, t1]. A task is reported once per
  /// (configuration, host range); order is unspecified.
  void query(int cluster_id, double t0, double t1,
             const std::function<void(const Entry&)>& fn) const;

  /// Appends the ascending, duplicate-free task indices intersecting the
  /// window to `out` (viewport culling keeps schedule paint order by
  /// sorting the union over clusters afterwards).
  void collect_tasks(int cluster_id, double t0, double t1,
                     std::vector<std::uint32_t>* out) const;

  /// Number of entries intersecting the window, stopping early once
  /// `limit` is reached — the LOD density probe, O(log n + limit).
  std::size_t count_upto(int cluster_id, double t0, double t1,
                         std::size_t limit) const;

  /// Point query: the entry with the highest task index covering time `t`
  /// on host `h` (the topmost rectangle in paint order), or nullptr.
  const Entry* topmost_at(int cluster_id, double t, int h) const;

  /// Ascending, duplicate-free indices of the tasks having at least one
  /// configuration in `cluster_id` — the cluster partition that replaces
  /// Schedule::tasks_in_cluster's O(n) scan. Segments cover disjoint task
  /// ranges, so this concatenates precomputed per-segment lists.
  std::vector<std::uint32_t> cluster_tasks(int cluster_id) const;

  /// Number of segments backing `cluster_id` (test/bench introspection).
  std::size_t segment_count(int cluster_id) const;

  /// One merged, sorted entry array (+ implicit-BST max_end) per cluster,
  /// in schedule cluster order — the snapshot serialization form.
  struct FlatCluster {
    int cluster_id = 0;
    std::vector<Entry> entries;
    std::vector<double> max_end;
  };
  std::vector<FlatCluster> flatten() const;

  /// FNV-1a over clusters, task ids/types/times and allocations; two
  /// schedules with equal hashes render identically (used to key the
  /// tile cache across reread()).
  std::uint64_t content_hash() const { return content_hash_; }

  /// The running hash before the task count is folded in — the resume
  /// point for O(delta) hash extension (extension ctor, ScheduleArena).
  std::uint64_t tasks_hash() const { return tasks_hash_; }

  /// The hash above without building an index (cache fallback path).
  static std::uint64_t hash_schedule(const Schedule& schedule);
  /// The running hash before the count fold (tasks_hash()) without
  /// building an index.
  static std::uint64_t hash_tasks(const Schedule& schedule);

 private:
  struct Segment {
    const Entry* entries = nullptr;   // sorted by begin (ties: task index)
    const double* max_end = nullptr;  // subtree max end, implicit BST
    std::size_t count = 0;
    std::shared_ptr<const void> owner;  // heap vectors or a file mapping
    // Sorted unique task indices appearing in this segment.
    std::shared_ptr<const std::vector<std::uint32_t>> tasks;
  };
  struct ClusterIndex {
    int cluster_id = 0;
    std::vector<Segment> segments;
  };

  /// Entries collected per cluster slot, and the time bounds of the
  /// collected tasks (`any`: at least one task seen).
  struct Collected {
    std::vector<std::vector<Entry>> entries;
    bool any = false;
    double lo = 0;
    double hi = 0;
    void widen(double begin, double end);
  };

  /// An index of `arena`'s clusters holding no tasks.
  static TaskIndex clusters_of(const ScheduleArena& arena);
  /// Builds a heap-backed segment from unsorted entries.
  static Segment make_segment(std::vector<Entry> entries);
  /// Adds task `i`'s entries and times to `out`.
  void collect_task(const Task& t, std::size_t i, Collected* out) const;
  /// The threaded full build: the serial build with its hash chain
  /// (skipped when `hash_known`) overlapping a block-wise collection and
  /// the segment builds.
  void build_in_blocks(const Schedule& schedule, bool hash_known);
  /// Shared tail of the build paths: installs the per-cluster fresh
  /// entry lists as segments, widens the bounds, refolds the count.
  void finish_extend(Collected* fresh, std::size_t new_count,
                     std::uint64_t new_tasks_hash);
  void compact_cluster(ClusterIndex* ci);

  const ClusterIndex* cluster(int id) const;

  // Worker count for segment builds during construction only; the built
  // index is immutable and thread-agnostic.
  int build_threads_ = 1;
  std::vector<ClusterIndex> clusters_;
  std::size_t task_count_ = 0;
  std::optional<TimeRange> time_range_;
  std::uint64_t content_hash_ = 0;
  std::uint64_t tasks_hash_ = 0;
};

}  // namespace jedule::model
