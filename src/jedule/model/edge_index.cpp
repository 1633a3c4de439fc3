#include "jedule/model/edge_index.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "jedule/model/arena.hpp"
#include "jedule/model/fnv.hpp"
#include "jedule/util/error.hpp"
#include "jedule/util/parallel.hpp"

namespace jedule::model {

namespace {

using detail::fnv_double;
using detail::fnv_u64;

constexpr std::uint32_t kNoVia = 0xFFFFFFFFu;

// Beyond this many segments per cluster the per-query segment loop starts
// to cost more than one amortized merge; the extension ctor compacts back
// to a single segment (same policy as TaskIndex).
constexpr std::size_t kMaxSegments = 8;

bool entry_less(const EdgeIndex::Entry& a, const EdgeIndex::Entry& b) {
  if (a.begin != b.begin) return a.begin < b.begin;
  if (a.src != b.src) return a.src < b.src;
  return a.dst < b.dst;
}

// Recursively fills max_end[mid] with the maximum end time over
// entries[lo, hi) — the implicit-BST augmentation of the sorted array.
double build_max_end(const std::vector<EdgeIndex::Entry>& entries,
                     std::vector<double>* max_end, std::size_t lo,
                     std::size_t hi) {
  if (lo >= hi) return -std::numeric_limits<double>::infinity();
  const std::size_t mid = lo + (hi - lo) / 2;
  double m = entries[mid].end;
  m = std::max(m, build_max_end(entries, max_end, lo, mid));
  m = std::max(m, build_max_end(entries, max_end, mid + 1, hi));
  (*max_end)[mid] = m;
  return m;
}

void query_range(const EdgeIndex::Entry* entries, const double* max_end,
                 std::size_t lo, std::size_t hi, double t0, double t1,
                 const std::function<void(const EdgeIndex::Entry&)>& fn) {
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (max_end[mid] < t0) return;
    query_range(entries, max_end, lo, mid, t0, t1, fn);
    const EdgeIndex::Entry& e = entries[mid];
    if (e.begin > t1) return;
    if (e.end >= t0) fn(e);
    lo = mid + 1;  // descend right iteratively (tail call)
  }
}

struct SegmentStorage {
  std::vector<EdgeIndex::Entry> entries;
  std::vector<double> max_end;
};

// Plain CSR (dst-major predecessor lists) of a schedule's dependency
// vector: the shared shape both the DP and entry emission iterate. The
// stable counting sort preserves per-destination insertion order, which
// is exactly the order dag::Dag::predecessors reports — the DP tie-break
// depends on it.
struct Csr {
  std::vector<std::uint64_t> off;  // n+1
  std::vector<std::uint32_t> src;
  std::vector<double> data;
};

Csr build_csr(const Schedule& schedule) {
  const std::size_t n = schedule.tasks().size();
  const auto& deps = schedule.dependencies();
  Csr csr;
  csr.off.assign(n + 1, 0);
  for (const Dependency& d : deps) ++csr.off[d.dst + 1];
  for (std::size_t i = 0; i < n; ++i) csr.off[i + 1] += csr.off[i];
  csr.src.resize(deps.size());
  csr.data.resize(deps.size());
  std::vector<std::uint64_t> cursor(csr.off.begin(), csr.off.end() - 1);
  for (const Dependency& d : deps) {
    const std::uint64_t slot = cursor[d.dst]++;
    csr.src[slot] = d.src;
    csr.data[slot] = d.data;
  }
  return csr;
}

}  // namespace

EdgeIndex::Segment EdgeIndex::make_segment(std::vector<Entry> entries) {
  auto storage = std::make_shared<SegmentStorage>();
  storage->entries = std::move(entries);
  std::sort(storage->entries.begin(), storage->entries.end(), entry_less);
  storage->max_end.assign(storage->entries.size(), 0.0);
  build_max_end(storage->entries, &storage->max_end, 0,
                storage->entries.size());
  Segment seg;
  seg.entries = storage->entries.data();
  seg.max_end = storage->max_end.data();
  seg.count = storage->entries.size();
  seg.owner = std::move(storage);
  return seg;
}

void EdgeIndex::install_fresh(std::vector<std::vector<Entry>>* fresh) {
  std::vector<std::size_t> pending;
  for (std::size_t c = 0; c < clusters_.size(); ++c) {
    if (!(*fresh)[c].empty()) pending.push_back(c);
  }
  std::vector<Segment> built(pending.size());
  util::parallel_for(pending.size(), build_threads_, [&](std::size_t k) {
    built[k] = make_segment(std::move((*fresh)[pending[k]]));
  });
  for (std::size_t k = 0; k < pending.size(); ++k) {
    clusters_[pending[k]].segments.push_back(std::move(built[k]));
    compact_cluster(&clusters_[pending[k]]);
  }
}

void EdgeIndex::compact_cluster(ClusterIndex* ci) {
  if (ci->segments.size() <= kMaxSegments) return;
  std::vector<Entry> all;
  std::size_t total = 0;
  for (const auto& s : ci->segments) total += s.count;
  all.reserve(total);
  for (const auto& s : ci->segments) {
    all.insert(all.end(), s.entries, s.entries + s.count);
  }
  ci->segments.clear();
  ci->segments.push_back(make_segment(std::move(all)));
}

// ---------------------------------------------------------------------------
// Construction

EdgeIndex::EdgeIndex(const Schedule& schedule, int threads)
    : build_threads_(std::max(1, threads)) {
  clusters_.reserve(schedule.clusters().size());
  for (const auto& c : schedule.clusters()) {
    ClusterIndex ci;
    ci.cluster_id = c.id;
    clusters_.push_back(std::move(ci));
  }

  const auto& tasks = schedule.tasks();
  const std::size_t n = tasks.size();
  const Csr csr = build_csr(schedule);

  auto cluster_slot = [this](int id) -> std::size_t {
    for (std::size_t c = 0; c < clusters_.size(); ++c) {
      if (clusters_[c].cluster_id == id) return c;
    }
    return static_cast<std::size_t>(-1);
  };
  auto rep_host = [&](std::uint32_t task, int cid) -> std::int32_t {
    for (const auto& cfg : tasks[task].configurations()) {
      if (cfg.cluster_id == cid && !cfg.hosts.empty()) {
        return cfg.hosts.front().start;
      }
    }
    return -1;
  };

  std::vector<std::vector<Entry>> fresh(clusters_.size());
  std::vector<int> seen;  // distinct clusters touched by the current edge
  edges_hash_ = detail::kFnvOffset;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::uint64_t k = csr.off[i]; k < csr.off[i + 1]; ++k) {
      const std::uint32_t src = csr.src[k];
      const auto dst = static_cast<std::uint32_t>(i);
      fnv_u64(&edges_hash_, src);
      fnv_u64(&edges_hash_, dst);
      fnv_double(&edges_hash_, csr.data[k]);
      Entry e;
      e.begin = std::min(tasks[src].end_time(), tasks[dst].start_time());
      e.end = std::max(tasks[src].end_time(), tasks[dst].start_time());
      e.src = src;
      e.dst = dst;
      seen.clear();
      for (const auto& cfg : tasks[src].configurations()) {
        if (std::find(seen.begin(), seen.end(), cfg.cluster_id) ==
            seen.end()) {
          seen.push_back(cfg.cluster_id);
        }
      }
      for (const auto& cfg : tasks[dst].configurations()) {
        if (std::find(seen.begin(), seen.end(), cfg.cluster_id) ==
            seen.end()) {
          seen.push_back(cfg.cluster_id);
        }
      }
      for (const int cid : seen) {
        const std::size_t slot = cluster_slot(cid);
        if (slot == static_cast<std::size_t>(-1)) continue;
        Entry ce = e;
        ce.src_host = rep_host(src, cid);
        ce.dst_host = rep_host(dst, cid);
        fresh[slot].push_back(ce);
      }
    }
  }
  edge_count_ = csr.src.size();
  install_fresh(&fresh);

  // Critical-path DP over the CSR (weights = task durations), mirroring
  // dag::Dag::critical_path: task order is a valid topological order.
  finish_.resize(n);
  via_.resize(n);
  best_time_ = -1.0;
  best_task_ = kNoVia;
  any_tasks_ = n > 0;
  for (std::size_t i = 0; i < n; ++i) {
    double start = 0.0;
    std::uint32_t via = kNoVia;
    for (std::uint64_t k = csr.off[i]; k < csr.off[i + 1]; ++k) {
      const std::uint32_t p = csr.src[k];
      if (finish_[p] > start) {
        start = finish_[p];
        via = p;
      }
    }
    finish_[i] = start + tasks[i].duration();
    via_[i] = via;
    if (finish_[i] > best_time_) {
      best_time_ = finish_[i];
      best_task_ = static_cast<std::uint32_t>(i);
    }
  }
  rebuild_path();
}

EdgeIndex::EdgeIndex(const ScheduleArena& arena, int threads)
    : build_threads_(std::max(1, threads)) {
  clusters_.reserve(arena.clusters().size());
  for (const auto& c : arena.clusters()) {
    ClusterIndex ci;
    ci.cluster_id = c.id;
    clusters_.push_back(std::move(ci));
  }
  edges_hash_ = arena.edges_hash();
  edge_count_ = arena.dep_count();
  best_time_ = -1.0;
  best_task_ = kNoVia;

  std::vector<std::vector<Entry>> fresh(clusters_.size());
  emit_entries(arena, 0, &fresh);
  install_fresh(&fresh);
  extend_dp(arena, 0);
  rebuild_path();
}

EdgeIndex::EdgeIndex(const EdgeIndex& base, const ScheduleArena& arena,
                     std::size_t first_new)
    : build_threads_(base.build_threads_),
      clusters_(base.clusters_),
      edge_count_(arena.dep_count()),
      edges_hash_(arena.edges_hash()),
      finish_(base.finish_),
      via_(base.via_),
      best_time_(base.best_time_),
      best_task_(base.best_task_),
      any_tasks_(base.any_tasks_) {
  JED_ASSERT(first_new == base.finish_.size());
  JED_ASSERT(arena.task_count() >= first_new);
  JED_ASSERT(arena.clusters().size() == clusters_.size());

  std::vector<std::vector<Entry>> fresh(clusters_.size());
  emit_entries(arena, first_new, &fresh);
  install_fresh(&fresh);
  extend_dp(arena, first_new);
  rebuild_path();
}

EdgeIndex::EdgeIndex(Raw raw, const ScheduleArena& arena)
    : edge_count_(raw.edge_count), edges_hash_(raw.edges_hash) {
  clusters_.reserve(raw.clusters.size());
  for (const auto& rc : raw.clusters) {
    ClusterIndex ci;
    ci.cluster_id = rc.cluster_id;
    if (rc.count > 0) {
      Segment seg;
      seg.entries = rc.entries;
      seg.max_end = rc.max_end;
      seg.count = rc.count;
      seg.owner = raw.owner;
      ci.segments.push_back(std::move(seg));
    }
    clusters_.push_back(std::move(ci));
  }
  best_time_ = -1.0;
  best_task_ = kNoVia;
  extend_dp(arena, 0);
  rebuild_path();
}

// Emits the index entries for every edge entering tasks [first, n) of the
// arena into the per-cluster lists.
void EdgeIndex::emit_entries(const ScheduleArena& arena, std::size_t first,
                             std::vector<std::vector<Entry>>* fresh) {
  const ScheduleArena::ColumnsView cols = arena.columns();
  if (cols.dep_off == nullptr) return;

  auto cluster_slot = [this](int id) -> std::size_t {
    for (std::size_t c = 0; c < clusters_.size(); ++c) {
      if (clusters_[c].cluster_id == id) return c;
    }
    return static_cast<std::size_t>(-1);
  };
  auto rep_host = [&](std::uint32_t task, int cid) -> std::int32_t {
    for (std::uint32_t c = cols.cfg_off[task]; c < cols.cfg_off[task + 1];
         ++c) {
      if (cols.cfg_cluster[c] == cid) {
        return cols.ranges[cols.range_off[c]].start;
      }
    }
    return -1;
  };

  std::vector<int> seen;
  for (std::size_t i = first; i < cols.tasks; ++i) {
    for (std::uint64_t k = cols.dep_off[i]; k < cols.dep_off[i + 1]; ++k) {
      const std::uint32_t src = cols.dep_src[k];
      const auto dst = static_cast<std::uint32_t>(i);
      Entry e;
      e.begin = std::min(cols.end[src], cols.start[dst]);
      e.end = std::max(cols.end[src], cols.start[dst]);
      e.src = src;
      e.dst = dst;
      seen.clear();
      for (std::uint32_t c = cols.cfg_off[src]; c < cols.cfg_off[src + 1];
           ++c) {
        if (std::find(seen.begin(), seen.end(), cols.cfg_cluster[c]) ==
            seen.end()) {
          seen.push_back(cols.cfg_cluster[c]);
        }
      }
      for (std::uint32_t c = cols.cfg_off[dst]; c < cols.cfg_off[dst + 1];
           ++c) {
        if (std::find(seen.begin(), seen.end(), cols.cfg_cluster[c]) ==
            seen.end()) {
          seen.push_back(cols.cfg_cluster[c]);
        }
      }
      for (const int cid : seen) {
        const std::size_t slot = cluster_slot(cid);
        if (slot == static_cast<std::size_t>(-1)) continue;
        Entry ce = e;
        ce.src_host = rep_host(src, cid);
        ce.dst_host = rep_host(dst, cid);
        (*fresh)[slot].push_back(ce);
      }
    }
  }
}

void EdgeIndex::extend_dp(const ScheduleArena& arena, std::size_t first) {
  const ScheduleArena::ColumnsView cols = arena.columns();
  const std::size_t n = cols.tasks;
  finish_.resize(n);
  via_.resize(n);
  if (n > first) any_tasks_ = true;
  for (std::size_t i = first; i < n; ++i) {
    double start = 0.0;
    std::uint32_t via = kNoVia;
    if (cols.dep_off != nullptr) {
      for (std::uint64_t k = cols.dep_off[i]; k < cols.dep_off[i + 1]; ++k) {
        const std::uint32_t p = cols.dep_src[k];
        if (finish_[p] > start) {
          start = finish_[p];
          via = p;
        }
      }
    }
    finish_[i] = start + (cols.end[i] - cols.start[i]);
    via_[i] = via;
    if (finish_[i] > best_time_) {
      best_time_ = finish_[i];
      best_task_ = static_cast<std::uint32_t>(i);
    }
  }
}

void EdgeIndex::rebuild_path() {
  path_.clear();
  if (!any_tasks_ || best_task_ == kNoVia) return;
  for (std::uint32_t v = best_task_; v != kNoVia; v = via_[v]) {
    path_.push_back(v);
  }
  std::reverse(path_.begin(), path_.end());
}

// ---------------------------------------------------------------------------
// Queries

const EdgeIndex::ClusterIndex* EdgeIndex::cluster(int id) const {
  for (const auto& ci : clusters_) {
    if (ci.cluster_id == id) return &ci;
  }
  return nullptr;
}

std::size_t EdgeIndex::entry_count(int cluster_id) const {
  const ClusterIndex* ci = cluster(cluster_id);
  if (ci == nullptr) return 0;
  std::size_t n = 0;
  for (const auto& s : ci->segments) n += s.count;
  return n;
}

std::size_t EdgeIndex::segment_count(int cluster_id) const {
  const ClusterIndex* ci = cluster(cluster_id);
  return ci ? ci->segments.size() : 0;
}

void EdgeIndex::query(int cluster_id, double t0, double t1,
                      const std::function<void(const Entry&)>& fn) const {
  const ClusterIndex* ci = cluster(cluster_id);
  if (ci == nullptr) return;
  for (const auto& s : ci->segments) {
    query_range(s.entries, s.max_end, 0, s.count, t0, t1, fn);
  }
}

std::size_t EdgeIndex::count_upto(int cluster_id, double t0, double t1,
                                  std::size_t limit) const {
  std::size_t n = 0;
  struct Done {};  // early exit once the caller's threshold is settled
  try {
    query(cluster_id, t0, t1, [&n, limit](const Entry&) {
      if (++n >= limit) throw Done{};
    });
  } catch (const Done&) {
  }
  return n;
}

std::uint64_t EdgeIndex::content_hash() const {
  if (edge_count_ == 0) return 0;
  std::uint64_t h = edges_hash_;
  fnv_u64(&h, edge_count_);
  return h;
}

std::vector<EdgeIndex::FlatCluster> EdgeIndex::flatten() const {
  std::vector<FlatCluster> out;
  out.reserve(clusters_.size());
  for (const auto& ci : clusters_) {
    FlatCluster fc;
    fc.cluster_id = ci.cluster_id;
    std::size_t total = 0;
    for (const auto& s : ci.segments) total += s.count;
    fc.entries.reserve(total);
    for (const auto& s : ci.segments) {
      fc.entries.insert(fc.entries.end(), s.entries, s.entries + s.count);
    }
    if (ci.segments.size() > 1) {
      std::sort(fc.entries.begin(), fc.entries.end(), entry_less);
    }
    fc.max_end.assign(fc.entries.size(), 0.0);
    build_max_end(fc.entries, &fc.max_end, 0, fc.entries.size());
    out.push_back(std::move(fc));
  }
  return out;
}

std::size_t EdgeIndex::heap_bytes() const {
  std::size_t b = finish_.capacity() * sizeof(double) +
                  via_.capacity() * sizeof(std::uint32_t) +
                  path_.capacity() * sizeof(std::uint32_t);
  // Segment arrays are counted whether heap- or mmap-backed; the store's
  // accounting treats a shared mapping as resident either way.
  for (const auto& ci : clusters_) {
    for (const auto& s : ci.segments) {
      b += s.count * (sizeof(Entry) + sizeof(double));
    }
  }
  return b;
}

}  // namespace jedule::model
