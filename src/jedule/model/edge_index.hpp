#pragma once

// model::EdgeIndex — the dependency-edge twin of model::TaskIndex
// (DESIGN.md §4j). Per cluster, every precedence edge with at least one
// endpoint configured in the cluster becomes one 32-byte Entry in a flat
// array sorted by the edge's time interval; an implicit balanced BST over
// the array stores subtree maximum end times, so "edges intersecting this
// time window" queries visit O(log n + k) entries instead of scanning all
// edges. An edge's interval is [min(src_end, dst_start), max(src_end,
// dst_start)] — the span the rendered arrow covers; intersection is
// closed, matching TaskIndex.
//
// Like TaskIndex, a cluster's entries live in immutable segments: a full
// build produces one segment per cluster (built in parallel across
// clusters), the O(delta) extension constructor shares the base segments
// and adds one small segment of only the new edges, and segments may
// alias an mmapped snapshot. Queries are deterministic regardless of the
// build history because entries are reported per segment in sorted order
// and render callers re-sort the visible set.
//
// The index also carries the schedule's critical path through the
// dependency DAG (weights = task durations), mirroring
// dag::Dag::critical_path exactly — task order is a valid topological
// order because edges always point forward (src < dst), so the DP is one
// pass over the CSR columns and extends in O(delta) on append (appended
// edges never enter old tasks, so old finish times stay valid).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "jedule/model/schedule.hpp"
#include "jedule/model/task_view.hpp"

namespace jedule::model {

class EdgeIndex {
 public:
  struct Entry {
    double begin = 0;  // min(src end, dst start)
    double end = 0;    // max(src end, dst start)
    // Representative host row of each endpoint in this cluster (first
    // host of its first configuration there), or -1 when the endpoint
    // has no configuration in the cluster (a cross-cluster edge).
    std::int32_t src_host = -1;
    std::int32_t dst_host = -1;
    std::uint32_t src = 0;  // task indices into Schedule::tasks()
    std::uint32_t dst = 0;
  };

  /// Empty index (no clusters, no edges) — the placeholder state for
  /// two-phase construction (engine::ScheduleEntry).
  EdgeIndex() = default;

  /// Builds the index from the dependency edges of either resident form
  /// in O(n + m + m log m). `threads` > 1 builds the per-cluster segments
  /// concurrently; the segments — and every query result — are identical
  /// at any thread count and from either form.
  explicit EdgeIndex(const TaskView& tasks, int threads = 1);

  /// O(delta) extension: `base` indexed the first `first_new` tasks of
  /// `arena` (same clusters, tasks only appended). Shares the base's
  /// segments, indexes only edges entering tasks [first_new, n), and
  /// continues the critical-path DP from the base's finish times.
  EdgeIndex(const EdgeIndex& base, const ScheduleArena& arena,
            std::size_t first_new);

  /// One pre-sorted, pre-augmented cluster loaded from a snapshot; the
  /// pointers typically alias an mmapped file kept alive by `Raw::owner`.
  struct RawCluster {
    int cluster_id = 0;
    const Entry* entries = nullptr;   // sorted by (begin, src, dst)
    const double* max_end = nullptr;  // implicit-BST augmentation
    std::size_t count = 0;
  };

  /// Zero-copy construction input (the `.jbin` load path): trusted
  /// precomputed segments plus the recorded hash. The critical-path DP is
  /// recomputed from the arena's CSR columns (O(n + m), not serialized).
  struct Raw {
    std::vector<RawCluster> clusters;
    std::shared_ptr<const void> owner;  // keeps the mapping alive
    std::uint64_t edges_hash = 0;
    std::size_t edge_count = 0;
  };
  EdgeIndex(Raw raw, const ScheduleArena& arena);

  std::size_t edge_count() const { return edge_count_; }
  bool empty() const { return edge_count_ == 0; }

  /// Entries indexed for `cluster_id` (0 for unknown clusters).
  std::size_t entry_count(int cluster_id) const;

  /// Number of segments backing `cluster_id` (test/bench introspection).
  std::size_t segment_count(int cluster_id) const;

  /// Calls `fn` for every entry of `cluster_id` whose closed interval
  /// [begin, end] intersects [t0, t1]. An edge is reported once per
  /// cluster that contains either endpoint; order is unspecified.
  void query(int cluster_id, double t0, double t1,
             const std::function<void(const Entry&)>& fn) const;

  /// Number of entries intersecting the window, stopping early once
  /// `limit` is reached — the arrows-vs-heat density probe.
  std::size_t count_upto(int cluster_id, double t0, double t1,
                         std::size_t limit) const;

  /// The critical path through the dependency DAG (weights = task
  /// durations), identical to dag::Dag::critical_path on the same edges.
  /// Ascending task indices, source to sink; empty when there are no
  /// tasks.
  const std::vector<std::uint32_t>& critical_path() const { return path_; }
  /// Its length in summed task durations (dag::Dag::critical_path_time);
  /// 0 for a schedule with no tasks, like the DAG walk.
  double critical_path_time() const { return any_tasks_ ? best_time_ : 0.0; }

  /// FNV fold of the arena's running edge hash and the edge count — the
  /// cache key for edge-dependent artifacts; 0 for the empty index.
  std::uint64_t content_hash() const;
  std::uint64_t edges_hash() const { return edges_hash_; }
  /// edges_hash() of `schedule` without building an index: the same fold
  /// over the same CSR order, O(n + m).
  static std::uint64_t hash_edges(const Schedule& schedule);

  /// One merged, sorted entry array (+ implicit-BST max_end) per cluster,
  /// in schedule cluster order — the snapshot serialization form.
  struct FlatCluster {
    int cluster_id = 0;
    std::vector<Entry> entries;
    std::vector<double> max_end;
  };
  std::vector<FlatCluster> flatten() const;

  /// Heap footprint (segments + DP arrays), for store accounting.
  std::size_t heap_bytes() const;

 private:
  struct Segment {
    const Entry* entries = nullptr;   // sorted by (begin, src, dst)
    const double* max_end = nullptr;  // subtree max end, implicit BST
    std::size_t count = 0;
    std::shared_ptr<const void> owner;  // heap vectors or a file mapping
  };
  struct ClusterIndex {
    int cluster_id = 0;
    std::vector<Segment> segments;
  };

  static Segment make_segment(std::vector<Entry> entries);
  /// Installs per-cluster fresh entry lists as segments (parallel across
  /// clusters when build_threads_ > 1) and compacts oversized clusters.
  void install_fresh(std::vector<std::vector<Entry>>* fresh);
  /// Emits the entries of the edges at positions [first_edge, m) of the
  /// view's dependency order into the per-cluster lists.
  void emit_entries(const TaskView& tasks, std::size_t first_edge,
                    std::vector<std::vector<Entry>>* fresh);
  void compact_cluster(ClusterIndex* ci);
  /// Extends the critical-path DP over tasks [first, n) of the arena.
  void extend_dp(const ScheduleArena& arena, std::size_t first);
  void rebuild_path();

  const ClusterIndex* cluster(int id) const;

  int build_threads_ = 1;
  std::vector<ClusterIndex> clusters_;
  std::size_t edge_count_ = 0;
  std::uint64_t edges_hash_ = 0;

  // Critical-path DP state, kept so the extension ctor resumes in
  // O(delta): finish[i] = duration(i) + max over predecessors.
  std::vector<double> finish_;
  std::vector<std::uint32_t> via_;  // kNoVia when no predecessor won
  std::vector<std::uint32_t> path_;
  double best_time_ = 0;
  std::uint32_t best_task_ = 0;
  bool any_tasks_ = false;
};

using EdgeIndexPtr = std::shared_ptr<const EdgeIndex>;

}  // namespace jedule::model
