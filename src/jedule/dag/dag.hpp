#pragma once

// Task graphs of mixed-parallel (moldable-task) applications — the
// application model of paper Secs. III-V.
//
// A DAG node is a moldable computational task: T(v, p) gives its execution
// time on p processors (Amdahl speedup plus a per-processor coordination
// overhead, the standard model in the CPA/MCPA literature). Edges carry the
// amount of data communicated between tasks. For the HEFT case study
// (single-processor tasks on heterogeneous hosts) the same nodes are used
// with p = 1 and time work/host_speed.

#include <string>
#include <vector>

namespace jedule::dag {

struct Node {
  int id = 0;
  std::string name;
  std::string type;       // task type shown by the visualizer ("mProject"...)
  double work = 1.0;      // Gflop at p = 1 on a unit-speed processor
  double serial_fraction = 0.0;  // Amdahl alpha in [0, 1]
  double overhead_per_proc = 0.0;  // coordination cost added per extra proc

  /// Moldable execution time on p >= 1 processors of speed `speed` Gflop/s:
  ///   T(v, p) = work/speed * (alpha + (1 - alpha)/p) + overhead*(p - 1)
  /// Monotone non-increasing in p while the overhead term stays small.
  double exec_time(int p, double speed = 1.0) const;
};

struct Edge {
  int src = 0;
  int dst = 0;
  double data = 0.0;  // MB transferred from src to dst
};

class Dag {
 public:
  explicit Dag(std::string name = "dag") : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Adds a node and returns its id (ids are dense, 0-based).
  int add_node(Node n);
  int add_node(std::string name, double work, double serial_fraction = 0.0,
               double overhead = 0.0);

  void add_edge(int src, int dst, double data = 0.0);

  int node_count() const { return static_cast<int>(nodes_.size()); }
  const Node& node(int id) const;
  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<Edge>& edges() const { return edges_; }

  const std::vector<int>& successors(int id) const;
  const std::vector<int>& predecessors(int id) const;

  /// Data on the (src, dst) edge; 0 if absent.
  double edge_data(int src, int dst) const;

  /// Nodes without predecessors / successors.
  std::vector<int> sources() const;
  std::vector<int> sinks() const;

  /// Kahn topological order; throws ValidationError when the graph has a
  /// cycle (also the acyclicity check).
  std::vector<int> topological_order() const;

  /// Precedence level of each node: length (in hops) of the longest path
  /// from any source. MCPA constrains allocations per level (Sec. III.B).
  std::vector<int> precedence_levels() const;

  /// Length of the critical path when node v runs in time `times[v]`
  /// (edge costs excluded, as in CPA's T_CP).
  double critical_path_time(const std::vector<double>& times) const;

  /// Nodes of one critical path (source to sink), given per-node times.
  std::vector<int> critical_path(const std::vector<double>& times) const;

  /// Average area T_A = (1/P) * sum_v T(v, p(v)) * p(v) (Sec. III.B).
  double average_area(const std::vector<double>& times,
                      const std::vector<int>& allocs, int total_procs) const;

  /// Maximum number of nodes in any precedence level ("width" of the DAG;
  /// the CRA_WIDTH share function uses it).
  int width() const;

  /// Total work W(i) = sum_v T(v, p(v)) * p(v) (paper Sec. IV.B).
  double total_work(const std::vector<double>& times,
                    const std::vector<int>& allocs) const;

 private:
  void ensure_adjacency() const;

  std::string name_;
  std::vector<Node> nodes_;
  std::vector<Edge> edges_;
  // Lazily built adjacency (invalidated by add_node/add_edge).
  mutable bool adjacency_valid_ = false;
  mutable std::vector<std::vector<int>> succ_;
  mutable std::vector<std::vector<int>> pred_;
};

}  // namespace jedule::dag
