#include "jedule/dag/dag.hpp"

#include <algorithm>
#include <queue>

#include "jedule/util/error.hpp"

namespace jedule::dag {

double Node::exec_time(int p, double speed) const {
  JED_ASSERT(p >= 1);
  JED_ASSERT(speed > 0);
  const double parallel = work / speed *
                          (serial_fraction + (1.0 - serial_fraction) / p);
  return parallel + overhead_per_proc * (p - 1);
}

int Dag::add_node(Node n) {
  n.id = static_cast<int>(nodes_.size());
  if (n.name.empty()) n.name = "v" + std::to_string(n.id);
  if (n.type.empty()) n.type = "computation";
  if (n.work <= 0) {
    throw ValidationError("node '" + n.name + "' must have positive work");
  }
  if (n.serial_fraction < 0 || n.serial_fraction > 1) {
    throw ValidationError("node '" + n.name +
                          "' serial fraction outside [0, 1]");
  }
  nodes_.push_back(std::move(n));
  adjacency_valid_ = false;
  return nodes_.back().id;
}

int Dag::add_node(std::string name, double work, double serial_fraction,
                  double overhead) {
  Node n;
  n.name = std::move(name);
  n.work = work;
  n.serial_fraction = serial_fraction;
  n.overhead_per_proc = overhead;
  return add_node(std::move(n));
}

void Dag::add_edge(int src, int dst, double data) {
  if (src < 0 || src >= node_count() || dst < 0 || dst >= node_count()) {
    throw ValidationError("edge endpoint out of range");
  }
  if (src == dst) throw ValidationError("self-loop on node " +
                                        std::to_string(src));
  if (data < 0) throw ValidationError("negative edge data");
  edges_.push_back(Edge{src, dst, data});
  adjacency_valid_ = false;
}

const Node& Dag::node(int id) const {
  JED_ASSERT(id >= 0 && id < node_count());
  return nodes_[static_cast<std::size_t>(id)];
}

void Dag::ensure_adjacency() const {
  if (adjacency_valid_) return;
  succ_.assign(nodes_.size(), {});
  pred_.assign(nodes_.size(), {});
  for (const auto& e : edges_) {
    succ_[static_cast<std::size_t>(e.src)].push_back(e.dst);
    pred_[static_cast<std::size_t>(e.dst)].push_back(e.src);
  }
  adjacency_valid_ = true;
}

const std::vector<int>& Dag::successors(int id) const {
  ensure_adjacency();
  JED_ASSERT(id >= 0 && id < node_count());
  return succ_[static_cast<std::size_t>(id)];
}

const std::vector<int>& Dag::predecessors(int id) const {
  ensure_adjacency();
  JED_ASSERT(id >= 0 && id < node_count());
  return pred_[static_cast<std::size_t>(id)];
}

double Dag::edge_data(int src, int dst) const {
  for (const auto& e : edges_) {
    if (e.src == src && e.dst == dst) return e.data;
  }
  return 0.0;
}

std::vector<int> Dag::sources() const {
  std::vector<int> out;
  for (int v = 0; v < node_count(); ++v) {
    if (predecessors(v).empty()) out.push_back(v);
  }
  return out;
}

std::vector<int> Dag::sinks() const {
  std::vector<int> out;
  for (int v = 0; v < node_count(); ++v) {
    if (successors(v).empty()) out.push_back(v);
  }
  return out;
}

std::vector<int> Dag::topological_order() const {
  ensure_adjacency();
  std::vector<int> indegree(nodes_.size(), 0);
  for (const auto& e : edges_) ++indegree[static_cast<std::size_t>(e.dst)];
  // Min-heap keeps the order deterministic and stable across runs.
  std::priority_queue<int, std::vector<int>, std::greater<>> ready;
  for (int v = 0; v < node_count(); ++v) {
    if (indegree[static_cast<std::size_t>(v)] == 0) ready.push(v);
  }
  std::vector<int> order;
  order.reserve(nodes_.size());
  while (!ready.empty()) {
    const int v = ready.top();
    ready.pop();
    order.push_back(v);
    for (int s : successors(v)) {
      if (--indegree[static_cast<std::size_t>(s)] == 0) ready.push(s);
    }
  }
  if (order.size() != nodes_.size()) {
    throw ValidationError("graph '" + name_ + "' contains a cycle");
  }
  return order;
}

std::vector<int> Dag::precedence_levels() const {
  std::vector<int> level(nodes_.size(), 0);
  for (int v : topological_order()) {
    for (int p : predecessors(v)) {
      level[static_cast<std::size_t>(v)] =
          std::max(level[static_cast<std::size_t>(v)],
                   level[static_cast<std::size_t>(p)] + 1);
    }
  }
  return level;
}

double Dag::critical_path_time(const std::vector<double>& times) const {
  JED_ASSERT(times.size() == nodes_.size());
  std::vector<double> finish(nodes_.size(), 0.0);
  double best = 0.0;
  for (int v : topological_order()) {
    double start = 0.0;
    for (int p : predecessors(v)) {
      start = std::max(start, finish[static_cast<std::size_t>(p)]);
    }
    finish[static_cast<std::size_t>(v)] =
        start + times[static_cast<std::size_t>(v)];
    best = std::max(best, finish[static_cast<std::size_t>(v)]);
  }
  return best;
}

std::vector<int> Dag::critical_path(const std::vector<double>& times) const {
  JED_ASSERT(times.size() == nodes_.size());
  std::vector<double> finish(nodes_.size(), 0.0);
  std::vector<int> via(nodes_.size(), -1);
  int last = -1;
  double best = -1.0;
  for (int v : topological_order()) {
    double start = 0.0;
    for (int p : predecessors(v)) {
      if (finish[static_cast<std::size_t>(p)] > start) {
        start = finish[static_cast<std::size_t>(p)];
        via[static_cast<std::size_t>(v)] = p;
      }
    }
    finish[static_cast<std::size_t>(v)] =
        start + times[static_cast<std::size_t>(v)];
    if (finish[static_cast<std::size_t>(v)] > best) {
      best = finish[static_cast<std::size_t>(v)];
      last = v;
    }
  }
  std::vector<int> path;
  for (int v = last; v != -1; v = via[static_cast<std::size_t>(v)]) {
    path.push_back(v);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

double Dag::average_area(const std::vector<double>& times,
                         const std::vector<int>& allocs,
                         int total_procs) const {
  JED_ASSERT(times.size() == nodes_.size());
  JED_ASSERT(allocs.size() == nodes_.size());
  JED_ASSERT(total_procs > 0);
  return total_work(times, allocs) / total_procs;
}

double Dag::total_work(const std::vector<double>& times,
                       const std::vector<int>& allocs) const {
  double work = 0.0;
  for (std::size_t v = 0; v < nodes_.size(); ++v) {
    work += times[v] * allocs[v];
  }
  return work;
}

int Dag::width() const {
  const auto levels = precedence_levels();
  std::vector<int> count;
  for (int level : levels) {
    if (static_cast<std::size_t>(level) >= count.size()) {
      count.resize(static_cast<std::size_t>(level) + 1, 0);
    }
    ++count[static_cast<std::size_t>(level)];
  }
  int best = 0;
  for (int c : count) best = std::max(best, c);
  return best;
}

}  // namespace jedule::dag
