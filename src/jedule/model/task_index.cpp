#include "jedule/model/task_index.hpp"

#include <algorithm>
#include <latch>
#include <limits>
#include <string>
#include <utility>

#include "jedule/model/arena.hpp"
#include "jedule/model/fnv.hpp"
#include "jedule/util/error.hpp"
#include "jedule/util/parallel.hpp"

namespace jedule::model {

namespace {

using detail::fnv_double;
using detail::fnv_string;
using detail::fnv_u64;

// Beyond this many segments per cluster the per-query segment loop starts
// to cost more than one amortized merge; the extension ctor compacts back
// to a single segment.
constexpr std::size_t kMaxSegments = 8;

// Tasks per collection block of the threaded full build; a schedule of
// fewer than two blocks is indexed by the serial pass.
constexpr std::size_t kIndexBlock = std::size_t{1} << 15;

// FNV-1a over the cluster table — the prefix of the schedule hash.
std::uint64_t hash_clusters(const Schedule& schedule) {
  std::uint64_t h = detail::kFnvOffset;
  fnv_u64(&h, schedule.clusters().size());
  for (const auto& c : schedule.clusters()) {
    fnv_u64(&h, static_cast<std::uint64_t>(c.id));
    fnv_u64(&h, static_cast<std::uint64_t>(c.hosts));
    fnv_string(&h, c.name);
  }
  return h;
}

void hash_task(std::uint64_t* h, const Task& t) {
  fnv_string(h, t.id());
  fnv_string(h, t.type());
  fnv_double(h, t.start_time());
  fnv_double(h, t.end_time());
  fnv_u64(h, t.configurations().size());
  for (const auto& cfg : t.configurations()) {
    fnv_u64(h, static_cast<std::uint64_t>(cfg.cluster_id));
    for (const auto& hr : cfg.hosts) {
      fnv_u64(h, static_cast<std::uint64_t>(hr.start));
      fnv_u64(h, static_cast<std::uint64_t>(hr.nb));
    }
  }
  // Properties drive highlighting, so they are part of the identity.
  fnv_u64(h, t.properties().size());
  for (const auto& [k, v] : t.properties()) {
    fnv_string(h, k);
    fnv_string(h, v);
  }
}

// Recursively fills max_end[mid] with the maximum end time over
// entries[lo, hi) — the implicit-BST augmentation of the sorted array.
double build_max_end(const std::vector<TaskIndex::Entry>& entries,
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

void query_range(const TaskIndex::Entry* entries, const double* max_end,
                 std::size_t lo, std::size_t hi, double t0, double t1,
                 const std::function<void(const TaskIndex::Entry&)>& fn) {
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    // Nothing in this subtree ends late enough to reach the window.
    if (max_end[mid] < t0) return;
    query_range(entries, max_end, lo, mid, t0, t1, fn);
    const TaskIndex::Entry& e = entries[mid];
    // Entries right of mid begin no earlier than e; once e starts past
    // the window, the right subtree cannot intersect either.
    if (e.begin > t1) return;
    if (e.end >= t0) fn(e);
    lo = mid + 1;  // descend right iteratively (tail call)
  }
}

// The heap backing of one segment: the shared owner keeps both arrays
// alive for as long as any index generation references them.
struct SegmentStorage {
  std::vector<TaskIndex::Entry> entries;
  std::vector<double> max_end;
};

}  // namespace

TaskIndex::Segment TaskIndex::make_segment(std::vector<Entry> entries) {
  // The build paths collect entries in ascending task order, so the task
  // list falls out of one pass over the collection order; only a
  // compaction merge (concatenated time-sorted segments) needs the sort.
  auto tasks = std::make_shared<std::vector<std::uint32_t>>();
  tasks->reserve(entries.size());
  for (const auto& e : entries) {
    if (tasks->empty() || tasks->back() != e.task) tasks->push_back(e.task);
  }
  if (!std::is_sorted(tasks->begin(), tasks->end())) {
    std::sort(tasks->begin(), tasks->end());
    tasks->erase(std::unique(tasks->begin(), tasks->end()), tasks->end());
  }

  auto storage = std::make_shared<SegmentStorage>();
  storage->entries = std::move(entries);
  std::sort(storage->entries.begin(), storage->entries.end(),
            [](const Entry& a, const Entry& b) {
              if (a.begin != b.begin) return a.begin < b.begin;
              return a.task < b.task;
            });
  storage->max_end.assign(storage->entries.size(), 0.0);
  build_max_end(storage->entries, &storage->max_end, 0,
                storage->entries.size());

  Segment seg;
  seg.entries = storage->entries.data();
  seg.max_end = storage->max_end.data();
  seg.count = storage->entries.size();
  seg.owner = std::move(storage);
  seg.tasks = std::move(tasks);
  return seg;
}

void TaskIndex::Collected::widen(double begin, double end) {
  if (!any) {
    lo = begin;
    hi = end;
    any = true;
  } else {
    lo = std::min(lo, begin);
    hi = std::max(hi, end);
  }
}

void TaskIndex::collect_task(const Task& t, std::size_t i,
                             Collected* out) const {
  out->widen(t.start_time(), t.end_time());
  for (const auto& cfg : t.configurations()) {
    const ClusterIndex* ci = cluster(cfg.cluster_id);
    if (ci == nullptr) continue;  // validate() rejects this anyway
    for (const auto& hr : cfg.hosts) {
      Entry e;
      e.begin = t.start_time();
      e.end = t.end_time();
      e.host_start = hr.start;
      e.host_end = hr.start + hr.nb - 1;
      e.task = static_cast<std::uint32_t>(i);
      out->entries[static_cast<std::size_t>(ci - clusters_.data())]
          .push_back(e);
    }
  }
}

void TaskIndex::build_in_blocks(const Schedule& schedule) {
  const auto& tasks = schedule.tasks();
  const std::size_t n = tasks.size();
  const std::size_t blocks = (n + kIndexBlock - 1) / kIndexBlock;
  const std::size_t nc = clusters_.size();
  std::vector<Collected> collected(blocks);
  for (auto& block : collected) block.entries.resize(nc);
  std::vector<Segment> built(nc);
  std::latch all_collected(static_cast<std::ptrdiff_t>(blocks));
  std::uint64_t chain = tasks_hash_;
  // Piece 0 runs the serial FNV chain over every task. Pieces 1..blocks
  // each collect one block of tasks. The last `nc` pieces each wait for
  // the collection, concatenate one cluster's block lists in task order
  // (the serial collection order) and build its segment. Pieces are
  // claimed in index order and a collecting piece never waits, so every
  // wait ends.
  util::parallel_for(1 + blocks + nc, build_threads_, [&](std::size_t p) {
    if (p == 0) {
      for (const Task& t : tasks) hash_task(&chain, t);
    } else if (p <= blocks) {
      Collected& block = collected[p - 1];
      const std::size_t end = std::min(n, p * kIndexBlock);
      try {
        for (std::size_t i = (p - 1) * kIndexBlock; i < end; ++i) {
          collect_task(tasks[i], i, &block);
        }
      } catch (...) {
        all_collected.count_down();  // no waiter may hang on a failed block
        throw;
      }
      all_collected.count_down();
    } else {
      all_collected.wait();
      const std::size_t c = p - 1 - blocks;
      std::size_t total = 0;
      for (const auto& block : collected) total += block.entries[c].size();
      if (total == 0) return;
      std::vector<Entry> entries;
      entries.reserve(total);
      for (auto& block : collected) {
        entries.insert(entries.end(), block.entries[c].begin(),
                       block.entries[c].end());
        std::vector<Entry>().swap(block.entries[c]);
      }
      built[c] = make_segment(std::move(entries));
    }
  });
  for (std::size_t c = 0; c < nc; ++c) {
    if (built[c].count > 0) {
      clusters_[c].segments.push_back(std::move(built[c]));
    }
  }
  // The segments are installed; the tail only folds bounds and the hash.
  Collected rest;
  rest.entries.resize(nc);
  for (const auto& block : collected) {
    if (block.any) rest.widen(block.lo, block.hi);
  }
  finish_extend(&rest, n, chain);
}

void TaskIndex::finish_extend(Collected* fresh, std::size_t new_count,
                              std::uint64_t new_tasks_hash) {
  if (fresh->any) {
    if (!time_range_) {
      time_range_ = TimeRange{fresh->lo, fresh->hi};
    } else {
      time_range_->begin = std::min(time_range_->begin, fresh->lo);
      time_range_->end = std::max(time_range_->end, fresh->hi);
    }
  }

  // Per-cluster segment builds (sort + BST augmentation) are independent;
  // spread them over the build workers. The segments are a pure function
  // of the entry lists, so the index is identical at any thread count.
  std::vector<std::size_t> pending;
  for (std::size_t c = 0; c < clusters_.size(); ++c) {
    if (!fresh->entries[c].empty()) pending.push_back(c);
  }
  std::vector<Segment> built(pending.size());
  util::parallel_for(pending.size(), build_threads_, [&](std::size_t k) {
    built[k] = make_segment(std::move(fresh->entries[pending[k]]));
  });
  for (std::size_t k = 0; k < pending.size(); ++k) {
    clusters_[pending[k]].segments.push_back(std::move(built[k]));
    compact_cluster(&clusters_[pending[k]]);
  }

  task_count_ = new_count;
  tasks_hash_ = new_tasks_hash;
  content_hash_ = tasks_hash_;
  fnv_u64(&content_hash_, task_count_);
}

void TaskIndex::compact_cluster(ClusterIndex* ci) {
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

TaskIndex::TaskIndex(const Schedule& schedule, int threads)
    : build_threads_(std::max(1, threads)) {
  clusters_.reserve(schedule.clusters().size());
  for (const auto& c : schedule.clusters()) {
    ClusterIndex ci;
    ci.cluster_id = c.id;
    clusters_.push_back(std::move(ci));
  }
  tasks_hash_ = hash_clusters(schedule);
  if (build_threads_ > 1 && schedule.tasks().size() >= 2 * kIndexBlock) {
    build_in_blocks(schedule);
  } else {
    const auto& tasks = schedule.tasks();
    Collected fresh;
    fresh.entries.resize(clusters_.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      collect_task(tasks[i], i, &fresh);
      hash_task(&tasks_hash_, tasks[i]);
    }
    finish_extend(&fresh, tasks.size(), tasks_hash_);
  }
}

TaskIndex::TaskIndex(const TaskIndex& base, const ScheduleArena& arena,
                     std::size_t first_new)
    : clusters_(base.clusters_),
      task_count_(base.task_count_),
      time_range_(base.time_range_),
      content_hash_(base.content_hash_),
      tasks_hash_(base.tasks_hash_) {
  JED_ASSERT(first_new == base.task_count_);
  JED_ASSERT(arena.task_count() >= first_new);
  JED_ASSERT(arena.clusters().size() == clusters_.size());
  for (std::size_t c = 0; c < clusters_.size(); ++c) {
    JED_ASSERT(arena.clusters()[c].id == clusters_[c].cluster_id);
  }

  const ScheduleArena::ColumnsView cols = arena.columns();
  Collected fresh;
  fresh.entries.resize(clusters_.size());
  for (std::size_t i = first_new; i < cols.tasks; ++i) {
    const double b = cols.start[i];
    const double e = cols.end[i];
    fresh.widen(b, e);
    for (std::uint32_t c = cols.cfg_off[i]; c < cols.cfg_off[i + 1]; ++c) {
      const ClusterIndex* ci = cluster(cols.cfg_cluster[c]);
      if (ci == nullptr) continue;  // append() rejects this anyway
      for (std::uint32_t r = cols.range_off[c]; r < cols.range_off[c + 1];
           ++r) {
        Entry en;
        en.begin = b;
        en.end = e;
        en.host_start = cols.ranges[r].start;
        en.host_end = cols.ranges[r].start + cols.ranges[r].nb - 1;
        en.task = static_cast<std::uint32_t>(i);
        fresh.entries[static_cast<std::size_t>(ci - clusters_.data())]
            .push_back(en);
      }
    }
  }
  // The arena extended the same running FNV chain row by row; adopting it
  // skips rehashing and stays byte-identical to a fresh build.
  finish_extend(&fresh, cols.tasks, arena.tasks_hash());
  JED_ASSERT(content_hash_ == arena.content_hash());
}

TaskIndex::TaskIndex(Raw raw)
    : task_count_(raw.task_count),
      time_range_(raw.time_range),
      content_hash_(raw.content_hash),
      tasks_hash_(raw.tasks_hash) {
  clusters_.reserve(raw.clusters.size());
  for (const auto& rc : raw.clusters) {
    ClusterIndex ci;
    ci.cluster_id = rc.cluster_id;
    if (rc.count > 0) {
      auto tasks = std::make_shared<std::vector<std::uint32_t>>();
      tasks->reserve(rc.count);
      for (std::size_t i = 0; i < rc.count; ++i) {
        tasks->push_back(rc.entries[i].task);
      }
      std::sort(tasks->begin(), tasks->end());
      tasks->erase(std::unique(tasks->begin(), tasks->end()), tasks->end());

      Segment seg;
      seg.entries = rc.entries;
      seg.max_end = rc.max_end;
      seg.count = rc.count;
      seg.owner = raw.owner;
      seg.tasks = std::move(tasks);
      ci.segments.push_back(std::move(seg));
    }
    clusters_.push_back(std::move(ci));
  }
}

std::uint64_t TaskIndex::hash_schedule(const Schedule& schedule) {
  std::uint64_t h = hash_clusters(schedule);
  for (const auto& t : schedule.tasks()) hash_task(&h, t);
  // The count folds in last so the per-task chain above is resumable: an
  // O(delta) append rehashes only the new tasks, then re-folds the count.
  fnv_u64(&h, schedule.tasks().size());
  return h;
}

const TaskIndex::ClusterIndex* TaskIndex::cluster(int id) const {
  for (const auto& ci : clusters_) {
    if (ci.cluster_id == id) return &ci;
  }
  return nullptr;
}

std::size_t TaskIndex::entry_count(int cluster_id) const {
  const ClusterIndex* ci = cluster(cluster_id);
  if (ci == nullptr) return 0;
  std::size_t n = 0;
  for (const auto& s : ci->segments) n += s.count;
  return n;
}

std::size_t TaskIndex::segment_count(int cluster_id) const {
  const ClusterIndex* ci = cluster(cluster_id);
  return ci ? ci->segments.size() : 0;
}

void TaskIndex::query(int cluster_id, double t0, double t1,
                      const std::function<void(const Entry&)>& fn) const {
  const ClusterIndex* ci = cluster(cluster_id);
  if (ci == nullptr) return;
  for (const auto& s : ci->segments) {
    query_range(s.entries, s.max_end, 0, s.count, t0, t1, fn);
  }
}

void TaskIndex::collect_tasks(int cluster_id, double t0, double t1,
                              std::vector<std::uint32_t>* out) const {
  const std::size_t first = out->size();
  query(cluster_id, t0, t1,
        [out](const Entry& e) { out->push_back(e.task); });
  std::sort(out->begin() + static_cast<std::ptrdiff_t>(first), out->end());
  out->erase(std::unique(out->begin() + static_cast<std::ptrdiff_t>(first),
                         out->end()),
             out->end());
}

std::size_t TaskIndex::count_upto(int cluster_id, double t0, double t1,
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

const TaskIndex::Entry* TaskIndex::topmost_at(int cluster_id, double t,
                                              int h) const {
  const Entry* best = nullptr;
  query(cluster_id, t, t, [&best, h](const Entry& e) {
    if (h < e.host_start || h > e.host_end) return;
    if (best == nullptr || e.task > best->task) best = &e;
  });
  return best;
}

std::vector<std::uint32_t> TaskIndex::cluster_tasks(int cluster_id) const {
  std::vector<std::uint32_t> out;
  const ClusterIndex* ci = cluster(cluster_id);
  if (ci == nullptr) return out;
  std::size_t total = 0;
  for (const auto& s : ci->segments) total += s.tasks->size();
  out.reserve(total);
  // Extension segments always cover strictly later task indices than the
  // segments before them, so the per-segment sorted lists concatenate
  // into one sorted, duplicate-free partition.
  for (const auto& s : ci->segments) {
    out.insert(out.end(), s.tasks->begin(), s.tasks->end());
  }
  return out;
}

std::vector<TaskIndex::FlatCluster> TaskIndex::flatten() const {
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
      std::sort(fc.entries.begin(), fc.entries.end(),
                [](const Entry& a, const Entry& b) {
                  if (a.begin != b.begin) return a.begin < b.begin;
                  return a.task < b.task;
                });
    }
    fc.max_end.assign(fc.entries.size(), 0.0);
    build_max_end(fc.entries, &fc.max_end, 0, fc.entries.size());
    out.push_back(std::move(fc));
  }
  return out;
}

}  // namespace jedule::model
