#include "jedule/model/schedule.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <limits>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <unordered_set>

#include "jedule/util/error.hpp"
#include "jedule/util/parallel.hpp"

namespace jedule::model {

namespace detail {

namespace {

struct StringViewHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

struct StringViewEq {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const noexcept {
    return a == b;
  }
};

}  // namespace

const std::string* intern_task_type(std::string_view type) {
  // unordered_set is node-based, so &*it stays valid across rehashes. The
  // pool is never shrunk; a handful of types live for the process lifetime.
  static std::shared_mutex mutex;
  static std::unordered_set<std::string, StringViewHash, StringViewEq> pool;
  {
    std::shared_lock lock(mutex);
    auto it = pool.find(type);
    if (it != pool.end()) return &*it;
  }
  std::unique_lock lock(mutex);
  return &*pool.emplace(type).first;
}

}  // namespace detail

int Configuration::host_count() const {
  int n = 0;
  for (const auto& r : hosts) n += r.nb;
  return n;
}

std::vector<int> Configuration::host_list() const {
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(host_count()));
  for (const auto& r : hosts) {
    for (int h = r.start; h < r.start + r.nb; ++h) out.push_back(h);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void Task::allocate(int cluster_id, int first_host, int host_count) {
  Configuration c;
  c.cluster_id = cluster_id;
  c.hosts.push_back(HostRange{first_host, host_count});
  configs_.push_back(std::move(c));
}

int Task::total_hosts() const {
  int n = 0;
  for (const auto& c : configs_) n += c.host_count();
  return n;
}

void Task::set_property(std::string key, std::string value) {
  for (auto& [k, v] : properties_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  properties_.emplace_back(std::move(key), std::move(value));
}

std::optional<std::string_view> Task::property(std::string_view key) const {
  for (const auto& [k, v] : properties_) {
    if (k == key) return std::string_view(v);
  }
  return std::nullopt;
}

std::size_t Schedule::add_cluster(Cluster c) {
  if (cluster_index_.count(c.id) != 0) {
    throw ValidationError("duplicate cluster id " + std::to_string(c.id));
  }
  if (c.hosts <= 0) {
    throw ValidationError("cluster " + std::to_string(c.id) +
                          " must have a positive host count");
  }
  const std::size_t index = clusters_.size();
  cluster_index_[c.id] = index;
  clusters_.push_back(std::move(c));
  return index;
}

std::size_t Schedule::add_cluster(int id, std::string name, int hosts) {
  return add_cluster(Cluster{id, std::move(name), hosts});
}

const Cluster& Schedule::cluster_by_id(int id) const {
  auto it = cluster_index_.find(id);
  if (it == cluster_index_.end()) {
    throw ValidationError("unknown cluster id " + std::to_string(id));
  }
  return clusters_[it->second];
}

bool Schedule::has_cluster(int id) const {
  return cluster_index_.count(id) != 0;
}

int Schedule::total_hosts() const {
  int n = 0;
  for (const auto& c : clusters_) n += c.hosts;
  return n;
}

int Schedule::global_resource_index(int cluster_id, int host) const {
  int offset = 0;
  for (const auto& c : clusters_) {
    if (c.id == cluster_id) {
      JED_ASSERT(host >= 0 && host < c.hosts);
      return offset + host;
    }
    offset += c.hosts;
  }
  throw ValidationError("unknown cluster id " + std::to_string(cluster_id));
}

const Task* Schedule::find_task(std::string_view id) const {
  for (const auto& t : tasks_) {
    if (t.id() == id) return &t;
  }
  return nullptr;
}

void Schedule::append_tasks(std::vector<std::vector<Task>> parts,
                            int threads) {
  std::vector<std::size_t> base(parts.size() + 1, tasks_.size());
  for (std::size_t k = 0; k < parts.size(); ++k) {
    base[k + 1] = base[k] + parts[k].size();
  }
  tasks_.resize(base.back());
  util::parallel_for(parts.size(), threads, [&](std::size_t k) {
    std::move(parts[k].begin(), parts[k].end(),
              tasks_.begin() + static_cast<std::ptrdiff_t>(base[k]));
    std::vector<Task>().swap(parts[k]);
  });
}

void Schedule::set_meta(std::string key, std::string value) {
  for (auto& [k, v] : meta_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  meta_.emplace_back(std::move(key), std::move(value));
}

std::optional<std::string_view> Schedule::meta_value(
    std::string_view key) const {
  for (const auto& [k, v] : meta_) {
    if (k == key) return std::string_view(v);
  }
  return std::nullopt;
}

std::optional<TimeRange> Schedule::time_range() const {
  if (tasks_.empty()) return std::nullopt;
  TimeRange r{tasks_.front().start_time(), tasks_.front().end_time()};
  for (const auto& t : tasks_) {
    r.begin = std::min(r.begin, t.start_time());
    r.end = std::max(r.end, t.end_time());
  }
  return r;
}

std::optional<TimeRange> Schedule::cluster_time_range(int cluster_id) const {
  std::optional<TimeRange> r;
  for (const auto& t : tasks_) {
    bool in_cluster = false;
    for (const auto& c : t.configurations()) {
      if (c.cluster_id == cluster_id) {
        in_cluster = true;
        break;
      }
    }
    if (!in_cluster) continue;
    if (!r) {
      r = TimeRange{t.start_time(), t.end_time()};
    } else {
      r->begin = std::min(r->begin, t.start_time());
      r->end = std::max(r->end, t.end_time());
    }
  }
  return r;
}

std::optional<TimeRange> Schedule::view_time_range(int cluster_id,
                                                   ViewMode mode) const {
  if (mode == ViewMode::kAligned) return time_range();
  auto local = cluster_time_range(cluster_id);
  return local ? local : time_range();
}

std::vector<const Task*> Schedule::tasks_in_cluster(int cluster_id) const {
  std::vector<const Task*> out;
  for (const auto& t : tasks_) {
    for (const auto& c : t.configurations()) {
      if (c.cluster_id == cluster_id) {
        out.push_back(&t);
        break;
      }
    }
  }
  return out;
}

namespace {

// Tasks per block of the threaded validate pass; a schedule of fewer than
// two blocks is checked serially.
constexpr std::size_t kValidateBlock = std::size_t{1} << 14;

// Shards of the threaded duplicate-id probe, picked by the id hash's top
// bits (the low bits pick the slot). Equal ids hash alike, so a duplicate
// pair always shares a shard.
constexpr int kIdShardBits = 4;
constexpr std::size_t kIdShards = std::size_t{1} << kIdShardBits;
constexpr int kIdShardShift =
    std::numeric_limits<std::size_t>::digits - kIdShardBits;

std::size_t id_hash(std::string_view id) {
  return std::hash<std::string_view>{}(id);
}

}  // namespace

// Duplicate-id probe over a flat open-addressed table of task indices: a
// node-based set costs one allocation and several cache misses per insert,
// which at million-task scale is most of the validate pass.
class Schedule::IdProbe {
 public:
  IdProbe(const std::vector<Task>& tasks, std::size_t expected)
      : tasks_(tasks),
        mask_(std::bit_ceil(expected * 2 + 16) - 1),
        slots_(mask_ + 1, kEmpty) {}

  // Whether an earlier task has the same id; inserts task `index` if not.
  bool seen_before(std::size_t index, std::size_t hash) {
    const std::string_view id = tasks_[index].id();
    std::size_t h = hash & mask_;
    for (; slots_[h] != kEmpty; h = (h + 1) & mask_) {
      if (tasks_[slots_[h]].id() == id) return true;
    }
    slots_[h] = static_cast<std::uint32_t>(index);
    return false;
  }

 private:
  static constexpr std::uint32_t kEmpty = static_cast<std::uint32_t>(-1);
  const std::vector<Task>& tasks_;
  std::size_t mask_;
  std::vector<std::uint32_t> slots_;
};

void Schedule::check_tasks(std::size_t first, std::size_t last,
                           IdProbe* ids) const {
  // The common case is every task on the same cluster, so the id -> cluster
  // map lookup is cached across consecutive configurations.
  int cached_id = 0;
  const Cluster* cached_cluster = nullptr;
  for (std::size_t ti = first; ti < last; ++ti) {
    const Task& t = tasks_[ti];
    if (t.id().empty()) {
      throw ValidationError("task with empty id");
    }
    if (ids != nullptr && ids->seen_before(ti, id_hash(t.id()))) {
      throw ValidationError("duplicate task id '" + t.id() + "'");
    }
    if (!(t.end_time() >= t.start_time())) {
      throw ValidationError("task '" + t.id() + "' has end_time " +
                            std::to_string(t.end_time()) +
                            " before start_time " +
                            std::to_string(t.start_time()));
    }
    if (t.configurations().empty()) {
      throw ValidationError("task '" + t.id() + "' has no configuration");
    }
    for (const auto& cfg : t.configurations()) {
      if (cached_cluster == nullptr || cfg.cluster_id != cached_id) {
        auto it = cluster_index_.find(cfg.cluster_id);
        if (it == cluster_index_.end()) {
          throw ValidationError("task '" + t.id() +
                                "' references unknown cluster " +
                                std::to_string(cfg.cluster_id));
        }
        cached_id = cfg.cluster_id;
        cached_cluster = &clusters_[it->second];
      }
      const Cluster& cluster = *cached_cluster;
      if (cfg.hosts.empty()) {
        throw ValidationError("task '" + t.id() +
                              "' has a configuration without hosts");
      }
      // Disjoint used-host intervals [start, end), coalesced on insert. A
      // range overlapping earlier ones reports the same first duplicate
      // host the per-host scan found: the smallest overlapped index. A
      // single-range configuration (the common case by far) cannot repeat
      // a host, so the interval map is only kept for multi-range configs.
      std::map<int, int> used;
      for (const auto& range : cfg.hosts) {
        if (range.nb <= 0) {
          throw ValidationError("task '" + t.id() +
                                "' has a host range with nb <= 0");
        }
        if (range.start < 0 || range.start + range.nb > cluster.hosts) {
          throw ValidationError(
              "task '" + t.id() + "' host range [" +
              std::to_string(range.start) + ", " +
              std::to_string(range.start + range.nb) +
              ") exceeds cluster " + std::to_string(cluster.id) + " size " +
              std::to_string(cluster.hosts));
        }
        if (cfg.hosts.size() == 1) break;
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
          throw ValidationError("task '" + t.id() + "' lists host " +
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
  }
}

bool Schedule::tasks_pass_in_blocks(int threads) const {
  const std::size_t n = tasks_.size();
  const std::size_t blocks = (n + kValidateBlock - 1) / kValidateBlock;
  std::atomic<bool> pass{true};
  // Per block: the task checks, then the block's task indices bucketed by
  // id shard, with their id hashes.
  std::vector<std::size_t> hashes(n);
  std::vector<std::array<std::vector<std::uint32_t>, kIdShards>> members(
      blocks);
  util::parallel_for(blocks, threads, [&](std::size_t b) {
    const std::size_t first = b * kValidateBlock;
    const std::size_t last = std::min(n, first + kValidateBlock);
    try {
      check_tasks(first, last, nullptr);
    } catch (const ValidationError&) {
      pass = false;
      return;
    }
    for (std::size_t i = first; i < last; ++i) {
      hashes[i] = id_hash(tasks_[i].id());
      members[b][hashes[i] >> kIdShardShift].push_back(
          static_cast<std::uint32_t>(i));
    }
  });
  if (!pass) return false;
  // Per shard: the serial probe over the shard's tasks in task order
  // (blocks ascending, indices ascending within a block).
  util::parallel_for(kIdShards, threads, [&](std::size_t s) {
    std::size_t count = 0;
    for (const auto& m : members) count += m[s].size();
    IdProbe ids(tasks_, count);
    for (const auto& m : members) {
      for (const std::uint32_t i : m[s]) {
        if (ids.seen_before(i, hashes[i])) {
          pass = false;
          return;
        }
      }
    }
  });
  return pass;
}

void Schedule::validate(int threads) const {
  if (clusters_.empty()) {
    throw ValidationError("a schedule requires at least one cluster");
  }
  // The block pass only answers "valid or not". On any violation the
  // serial pass runs and names the first one in task order.
  if (threads <= 1 || tasks_.size() < 2 * kValidateBlock ||
      !tasks_pass_in_blocks(threads)) {
    IdProbe ids(tasks_, tasks_.size());
    check_tasks(0, tasks_.size(), &ids);
  }
  for (const Dependency& d : deps_) {
    if (d.src >= tasks_.size() || d.dst >= tasks_.size()) {
      throw ValidationError("dependency " + std::to_string(d.src) + " -> " +
                            std::to_string(d.dst) +
                            " references a task index out of range (" +
                            std::to_string(tasks_.size()) + " tasks)");
    }
    if (d.src >= d.dst) {
      throw ValidationError("dependency " + std::to_string(d.src) + " -> " +
                            std::to_string(d.dst) +
                            " must point forward in task order (src < dst)");
    }
    if (!(d.data >= 0)) {
      throw ValidationError("dependency " + std::to_string(d.src) + " -> " +
                            std::to_string(d.dst) + " has negative data " +
                            std::to_string(d.data));
    }
  }
}

}  // namespace jedule::model
