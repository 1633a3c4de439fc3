#include "jedule/model/schedule.hpp"

#include <algorithm>
#include <mutex>
#include <shared_mutex>
#include <unordered_set>

#include "jedule/model/task_view.hpp"
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

void Schedule::validate(int threads) const {
  TaskView(*this).validate(threads);
}

void Schedule::validate(int threads, const IdTable& ids) const {
  TaskView(*this).validate(threads, ids);
}

}  // namespace jedule::model
