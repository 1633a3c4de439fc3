#include "jedule/model/arena.hpp"

#include <algorithm>
#include <cmath>

#include "jedule/model/fnv.hpp"
#include "jedule/model/task_view.hpp"
#include "jedule/util/error.hpp"

namespace jedule::model {

namespace {

using detail::fnv_double;
using detail::fnv_string;
using detail::fnv_u64;

constexpr std::size_t kDensityBins = 256;

// The bounds sweep: *lo = min over a[0..n), *hi = max over b[0..n); n >= 1.
void minmax_f64(const double* a, const double* b, std::size_t n, double* lo,
                double* hi) {
  double l = a[0], h = b[0];
  for (std::size_t i = 1; i < n; ++i) {
    l = std::min(l, a[i]);
    h = std::max(h, b[i]);
  }
  *lo = l;
  *hi = h;
}

// Density bin geometry is a pure function of the cluster's current time
// bounds, so an incrementally grown histogram always matches a freshly
// built one: the width is the smallest power of two covering the range
// with kDensityBins bins, and the origin snaps down to the width grid.
void density_geometry(Time begin, Time end, Time* origin, Time* width) {
  double len = end - begin;
  if (!(len > 0)) len = 1.0;
  double w = 1.0;
  while (w * static_cast<double>(kDensityBins) < len) w *= 2;
  while (w * static_cast<double>(kDensityBins) >= len * 2 && w > 1e-9) w /= 2;
  if (w * static_cast<double>(kDensityBins) < len) w *= 2;
  double o = std::floor(begin / w) * w;
  while (end > o + w * static_cast<double>(kDensityBins)) {
    w *= 2;
    o = std::floor(begin / w) * w;
  }
  *origin = o;
  *width = w;
}

std::size_t density_bin(const ScheduleArena::Density& d, Time t) {
  auto k = static_cast<long long>(std::floor((t - d.origin) / d.bin_width));
  if (k < 0) k = 0;
  if (k >= static_cast<long long>(d.bins.size())) {
    k = static_cast<long long>(d.bins.size()) - 1;
  }
  return static_cast<std::size_t>(k);
}

}  // namespace

// ---------------------------------------------------------------------------
// Construction from the AoS schedule

ScheduleArena::ScheduleArena(const Schedule& schedule,
                             std::optional<std::uint64_t> tasks_hash) {
  clusters_ = schedule.clusters();
  for (std::size_t c = 0; c < clusters_.size(); ++c) {
    cluster_slot_[clusters_[c].id] = c;
  }
  meta_ = schedule.meta();

  const auto& tasks = schedule.tasks();
  const std::size_t n = tasks.size();

  auto& start = start_.owned();
  auto& end = end_.owned();
  auto& type_id = type_id_.owned();
  auto& id_off = id_off_.owned();
  auto& id_pool = id_pool_.owned();
  auto& cfg_off = cfg_off_.owned();
  auto& cfg_cluster = cfg_cluster_.owned();
  auto& range_off = range_off_.owned();
  auto& ranges = ranges_.owned();
  auto& prop_off = prop_off_.owned();
  auto& prop_slices = prop_slices_.owned();
  auto& prop_pool = prop_pool_.owned();

  start.reserve(n);
  end.reserve(n);
  type_id.reserve(n);
  id_off.reserve(n + 1);
  cfg_off.reserve(n + 1);
  prop_off.reserve(n + 1);
  id_off.push_back(0);
  cfg_off.push_back(0);
  range_off.push_back(0);
  prop_off.push_back(0);

  std::map<std::string_view, std::uint32_t> type_slot;
  for (const Task& t : tasks) {
    start.push_back(t.start_time());
    end.push_back(t.end_time());

    auto it = type_slot.find(t.type());
    if (it == type_slot.end()) {
      // The key views the process-wide type intern pool (Task::type()
      // returns the interned string), so it stays valid however types_
      // reallocates.
      it = type_slot
               .emplace(t.type(), static_cast<std::uint32_t>(types_.size()))
               .first;
      types_.push_back(t.type());
    }
    type_id.push_back(it->second);

    id_pool.insert(id_pool.end(), t.id().begin(), t.id().end());
    id_off.push_back(id_pool.size());

    for (const auto& cfg : t.configurations()) {
      cfg_cluster.push_back(cfg.cluster_id);
      ranges.insert(ranges.end(), cfg.hosts.begin(), cfg.hosts.end());
      range_off.push_back(static_cast<std::uint32_t>(ranges.size()));
    }
    cfg_off.push_back(static_cast<std::uint32_t>(cfg_cluster.size()));

    for (const auto& [k, v] : t.properties()) {
      prop_slices.push_back(prop_pool.size());
      prop_slices.push_back(k.size());
      prop_pool.insert(prop_pool.end(), k.begin(), k.end());
      prop_slices.push_back(prop_pool.size());
      prop_slices.push_back(v.size());
      prop_pool.insert(prop_pool.end(), v.begin(), v.end());
    }
    prop_off.push_back(static_cast<std::uint32_t>(prop_slices.size() / 4));
  }

  // CSR edge columns, grouped by destination task (stable counting sort
  // preserves per-destination insertion order). Built only when the
  // schedule actually carries dependencies; src < dst is checked by
  // validate() and re-checked by check_structure on load.
  edges_hash_ = detail::kFnvOffset;
  if (!schedule.dependencies().empty()) {
    const auto& deps = schedule.dependencies();
    for (const Dependency& d : deps) {
      if (d.src >= n || d.dst >= n) check_dependency(d.src, d.dst, d.data, n);
    }
    auto& dep_off = dep_off_.owned();
    auto& dep_src = dep_src_.owned();
    auto& dep_data = dep_data_.owned();
    dep_off.assign(n + 1, 0);
    for (const Dependency& d : deps) ++dep_off[d.dst + 1];
    for (std::size_t i = 0; i < n; ++i) dep_off[i + 1] += dep_off[i];
    dep_src.resize(deps.size());
    dep_data.resize(deps.size());
    std::vector<std::uint64_t> cursor(dep_off.begin(), dep_off.end() - 1);
    for (const Dependency& d : deps) {
      const std::uint64_t slot = cursor[d.dst]++;
      dep_src[slot] = d.src;
      dep_data[slot] = d.data;
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::uint64_t k = dep_off[i]; k < dep_off[i + 1]; ++k) {
        hash_edge(dep_src[k], static_cast<std::uint32_t>(i), dep_data[k]);
      }
    }
  }

  intern_new_types();
  build_derived();

  if (tasks_hash) {
    tasks_hash_ = *tasks_hash;
    return;
  }
  tasks_hash_ = detail::kFnvOffset;
  fnv_u64(&tasks_hash_, clusters_.size());
  for (const auto& c : clusters_) {
    fnv_u64(&tasks_hash_, static_cast<std::uint64_t>(c.id));
    fnv_u64(&tasks_hash_, static_cast<std::uint64_t>(c.hosts));
    fnv_string(&tasks_hash_, c.name);
  }
  for (std::size_t i = 0; i < n; ++i) hash_row(i);
}

// ---------------------------------------------------------------------------
// Construction from loaded columns

ScheduleArena::ScheduleArena(Raw raw)
    : start_(std::move(raw.start)),
      end_(std::move(raw.end)),
      type_id_(std::move(raw.type_id)),
      id_off_(std::move(raw.id_off)),
      id_pool_(std::move(raw.id_pool)),
      cfg_off_(std::move(raw.cfg_off)),
      cfg_cluster_(std::move(raw.cfg_cluster)),
      range_off_(std::move(raw.range_off)),
      ranges_(std::move(raw.ranges)),
      prop_off_(std::move(raw.prop_off)),
      prop_slices_(std::move(raw.prop_slices)),
      prop_pool_(std::move(raw.prop_pool)),
      dep_off_(std::move(raw.dep_off)),
      dep_src_(std::move(raw.dep_src)),
      dep_data_(std::move(raw.dep_data)),
      types_(std::move(raw.types)),
      clusters_(std::move(raw.clusters)),
      meta_(std::move(raw.meta)),
      tasks_hash_(raw.tasks_hash),
      edges_hash_(raw.edges_hash != 0 ? raw.edges_hash : detail::kFnvOffset),
      owner_(std::move(raw.owner)),
      mapped_file_bytes_(raw.mapped_file_bytes) {
  for (std::size_t c = 0; c < clusters_.size(); ++c) {
    if (!cluster_slot_.emplace(clusters_[c].id, c).second) {
      throw ParseError("snapshot: duplicate cluster id " +
                       std::to_string(clusters_[c].id));
    }
  }
  check_structure();
  intern_new_types();
  build_derived();
}

void ScheduleArena::check_structure() const {
  const std::size_t n = start_.size();
  auto fail = [](const std::string& what) {
    throw ParseError("snapshot: inconsistent columns (" + what + ")");
  };
  if (end_.size() != n || type_id_.size() != n) fail("task column sizes");
  if (id_off_.size() != n + 1 || cfg_off_.size() != n + 1 ||
      prop_off_.size() != n + 1) {
    fail("offset column sizes");
  }
  if (id_off_[0] != 0 || cfg_off_[0] != 0 || prop_off_[0] != 0) {
    fail("offset origins");
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (id_off_[i + 1] < id_off_[i]) fail("id offsets");
    if (cfg_off_[i + 1] < cfg_off_[i]) fail("config offsets");
    if (prop_off_[i + 1] < prop_off_[i]) fail("property offsets");
    if (type_id_[i] >= types_.size()) fail("type ids");
  }
  if (id_off_[n] != id_pool_.size()) fail("id pool size");
  const std::size_t m = cfg_off_[n];
  if (cfg_cluster_.size() != m || range_off_.size() != m + 1) {
    fail("config column sizes");
  }
  if (m > 0 && range_off_[0] != 0) fail("range offsets");
  for (std::size_t c = 0; c < m; ++c) {
    if (range_off_[c + 1] < range_off_[c]) fail("range offsets");
  }
  if ((m == 0 && ranges_.size() != 0) ||
      (m > 0 && range_off_[m] != ranges_.size())) {
    fail("range count");
  }
  if (m == 0 && range_off_.size() != 1) fail("range offset size");
  if (dep_off_.empty()) {
    if (dep_src_.size() != 0 || dep_data_.size() != 0) fail("edge columns");
  } else {
    if (dep_off_.size() != n + 1) fail("edge offset size");
    if (dep_off_[0] != 0) fail("edge offset origin");
    for (std::size_t i = 0; i < n; ++i) {
      if (dep_off_[i + 1] < dep_off_[i]) fail("edge offsets");
    }
    if (dep_src_.size() != dep_off_[n] || dep_data_.size() != dep_off_[n]) {
      fail("edge column sizes");
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::uint64_t k = dep_off_[i]; k < dep_off_[i + 1]; ++k) {
        if (dep_src_[k] >= i) fail("edge sources");
      }
    }
  }
  const std::size_t p = prop_off_[n];
  if (prop_slices_.size() != p * 4) fail("property slice count");
  for (std::size_t s = 0; s < p; ++s) {
    const std::uint64_t ko = prop_slices_[4 * s];
    const std::uint64_t kl = prop_slices_[4 * s + 1];
    const std::uint64_t vo = prop_slices_[4 * s + 2];
    const std::uint64_t vl = prop_slices_[4 * s + 3];
    if (ko + kl < ko || ko + kl > prop_pool_.size() || vo + vl < vo ||
        vo + vl > prop_pool_.size()) {
      fail("property slices");
    }
  }
}

void ScheduleArena::build_derived() {
  per_cluster_.clear();
  any_tasks_ = false;
  const std::size_t n = start_.size();
  if (n > 0) {
    minmax_f64(start_.data(), end_.data(), n, &range_.begin, &range_.end);
    any_tasks_ = true;
  }

  // Pass 1: partitions and per-cluster bounds. Consecutive configs tend
  // to name the same cluster, so one cached slot skips the map lookup on
  // the hot path of this million-iteration loop.
  std::vector<int> seen;  // clusters of the current task, deduplicated
  int cached_cid = 0;
  PerCluster* cached_pc = nullptr;
  for (std::size_t i = 0; i < n; ++i) {
    seen.clear();
    for (std::size_t c = cfg_off_[i]; c < cfg_off_[i + 1]; ++c) {
      const int cid = cfg_cluster_[c];
      if (std::find(seen.begin(), seen.end(), cid) != seen.end()) continue;
      seen.push_back(cid);
      if (cached_pc == nullptr || cid != cached_cid) {
        cached_pc = &per_cluster_[cid];
        cached_cid = cid;
      }
      PerCluster& pc = *cached_pc;
      pc.tasks.push_back(static_cast<std::uint32_t>(i));
      if (!pc.any) {
        pc.range = TimeRange{start_[i], end_[i]};
        pc.any = true;
      } else {
        pc.range.begin = std::min(pc.range.begin, start_[i]);
        pc.range.end = std::max(pc.range.end, end_[i]);
      }
    }
  }

  // Pass 2: start-time density histograms (additive, so append() can bump
  // or re-bucket them without rescanning columns).
  for (auto& [cid, pc] : per_cluster_) {
    pc.density.bins.assign(kDensityBins, 0);
    density_geometry(pc.range.begin, pc.range.end, &pc.density.origin,
                     &pc.density.bin_width);
    for (std::uint32_t t : pc.tasks) {
      ++pc.density.bins[density_bin(pc.density, start_[t])];
    }
  }

  id_table_ = IdTable();
}

// ---------------------------------------------------------------------------
// Column access

ScheduleArena::ColumnsView ScheduleArena::columns() const {
  ColumnsView v;
  v.tasks = start_.size();
  v.configs = cfg_cluster_.size();
  v.ranges_count = ranges_.size();
  v.props = prop_slices_.size() / 4;
  v.start = start_.data();
  v.end = end_.data();
  v.type_id = type_id_.data();
  v.id_off = id_off_.data();
  v.id_pool = id_pool_.data();
  v.id_pool_size = id_pool_.size();
  v.cfg_off = cfg_off_.data();
  v.cfg_cluster = cfg_cluster_.data();
  v.range_off = range_off_.data();
  v.ranges = ranges_.data();
  v.prop_off = prop_off_.data();
  v.prop_slices = prop_slices_.data();
  v.prop_pool = prop_pool_.data();
  v.prop_pool_size = prop_pool_.size();
  v.deps = dep_src_.size();
  v.dep_off = dep_off_.empty() ? nullptr : dep_off_.data();
  v.dep_src = dep_src_.data();
  v.dep_data = dep_data_.data();
  return v;
}

std::string_view ScheduleArena::task_id(std::size_t i) const {
  const std::uint64_t b = id_off_[i];
  return {id_pool_.data() + b, static_cast<std::size_t>(id_off_[i + 1] - b)};
}

std::string_view ScheduleArena::task_type(std::size_t i) const {
  return types_[type_id_[i]];
}

std::optional<TimeRange> ScheduleArena::time_range() const {
  if (!any_tasks_) return std::nullopt;
  return range_;
}

std::optional<TimeRange> ScheduleArena::cluster_time_range(
    int cluster_id) const {
  auto it = per_cluster_.find(cluster_id);
  if (it == per_cluster_.end() || !it->second.any) return std::nullopt;
  return it->second.range;
}

const std::vector<std::uint32_t>* ScheduleArena::cluster_tasks(
    int cluster_id) const {
  auto it = per_cluster_.find(cluster_id);
  if (it == per_cluster_.end()) return nullptr;
  return &it->second.tasks;
}

const ScheduleArena::Density* ScheduleArena::density(int cluster_id) const {
  auto it = per_cluster_.find(cluster_id);
  if (it == per_cluster_.end() || !it->second.any) return nullptr;
  return &it->second.density;
}

std::uint64_t ScheduleArena::content_hash() const {
  std::uint64_t h = tasks_hash_;
  fnv_u64(&h, task_count());
  return h;
}

std::uint64_t ScheduleArena::combined_hash() const {
  std::uint64_t h = content_hash();
  if (dep_src_.empty()) return h;
  fnv_u64(&h, edges_hash_);
  fnv_u64(&h, dep_src_.size());
  return h;
}

void ScheduleArena::hash_edge(std::uint32_t src, std::uint32_t dst,
                              double data) {
  fnv_u64(&edges_hash_, src);
  fnv_u64(&edges_hash_, dst);
  fnv_double(&edges_hash_, data);
}

// ---------------------------------------------------------------------------
// Hashing (must stay byte-identical to TaskIndex::hash_schedule)

void ScheduleArena::hash_row(std::size_t i) {
  std::uint64_t* h = &tasks_hash_;
  fnv_string(h, task_id(i));
  fnv_string(h, task_type(i));
  fnv_double(h, start_[i]);
  fnv_double(h, end_[i]);
  const std::size_t c0 = cfg_off_[i], c1 = cfg_off_[i + 1];
  fnv_u64(h, c1 - c0);
  for (std::size_t c = c0; c < c1; ++c) {
    fnv_u64(h, static_cast<std::uint64_t>(cfg_cluster_[c]));
    for (std::size_t r = range_off_[c]; r < range_off_[c + 1]; ++r) {
      fnv_u64(h, static_cast<std::uint64_t>(ranges_[r].start));
      fnv_u64(h, static_cast<std::uint64_t>(ranges_[r].nb));
    }
  }
  const std::size_t p0 = prop_off_[i], p1 = prop_off_[i + 1];
  fnv_u64(h, p1 - p0);
  for (std::size_t p = p0; p < p1; ++p) {
    const char* pool = prop_pool_.data();
    fnv_string(h, {pool + prop_slices_[4 * p],
                   static_cast<std::size_t>(prop_slices_[4 * p + 1])});
    fnv_string(h, {pool + prop_slices_[4 * p + 2],
                   static_cast<std::size_t>(prop_slices_[4 * p + 3])});
  }
}

void ScheduleArena::validate() const { TaskView(*this).validate(); }

// ---------------------------------------------------------------------------
// Materialization

Task ScheduleArena::task(std::size_t i) const {
  Task t;
  t.set_id(std::string(task_id(i)));
  t.set_interned_type(interned_types_[type_id_[i]]);
  t.set_times(start_[i], end_[i]);
  for (std::size_t c = cfg_off_[i]; c < cfg_off_[i + 1]; ++c) {
    Configuration cfg;
    cfg.cluster_id = cfg_cluster_[c];
    cfg.hosts.assign(ranges_.data() + range_off_[c],
                     ranges_.data() + range_off_[c + 1]);
    t.add_configuration(std::move(cfg));
  }
  for (std::size_t p = prop_off_[i]; p < prop_off_[i + 1]; ++p) {
    const char* pool = prop_pool_.data();
    t.set_property(
        std::string(pool + prop_slices_[4 * p],
                    static_cast<std::size_t>(prop_slices_[4 * p + 1])),
        std::string(pool + prop_slices_[4 * p + 2],
                    static_cast<std::size_t>(prop_slices_[4 * p + 3])));
  }
  return t;
}

Schedule ScheduleArena::to_schedule() const {
  Schedule out;
  for (const auto& c : clusters_) out.add_cluster(c);
  for (const auto& [k, v] : meta_) out.set_meta(k, v);

  const std::size_t n = task_count();
  out.mutable_tasks().reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.add_task(task(i));
  if (!dep_off_.empty()) {
    out.mutable_dependencies().reserve(dep_src_.size());
    for (std::size_t i = 0; i < n; ++i) {
      for (std::uint64_t k = dep_off_[i]; k < dep_off_[i + 1]; ++k) {
        out.add_dependency(dep_src_[k], static_cast<std::uint32_t>(i),
                           dep_data_[k]);
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// O(delta) append

void ScheduleArena::append(const std::vector<Event>& events) {
  // Phase 1: validate everything without touching the arena, so a bad
  // batch leaves it unchanged. The persistent id table answers duplicate
  // probes in O(1) per event instead of re-probing all rows; the first
  // append builds it.
  const IdRows rows{this};
  const std::size_t n = task_count();
  if (id_table_.empty() && n > 0) id_table_ = IdTable(rows, n);
  // The batch's own ids, by event index.
  struct EventRows {
    const std::vector<Event>* events;
    std::string_view id(std::size_t k) const { return (*events)[k].id; }
  };
  const EventRows event_rows{&events};
  IdTable batch;
  TaskCheck check(clusters_);
  // Dep targets resolved during phase 1 (per event, parallel to `events`),
  // so phase 2 commits without re-probing. A dep may name an existing
  // task or an *earlier* event of this batch — a later event (or the
  // event itself) would break the src < dst invariant and reads as
  // unknown here.
  std::vector<std::vector<std::pair<std::uint32_t, double>>> resolved;
  resolved.reserve(events.size());
  for (std::uint32_t k = 0; k < events.size(); ++k) {
    const Event& e = events[k];
    const bool repeated = id_table_.find(rows, e.id) != IdTable::kMissing ||
                          batch.insert(event_rows, k) != IdTable::kMissing;
    const std::int32_t cluster = e.cluster_id;
    const std::uint32_t range_off[] = {0, 1};
    const HostRange range{e.host_start, e.host_nb};
    check.check(e.id, repeated, e.start, e.end,
                ConfigRange(&cluster, range_off, &range, 0, 1));
    auto& out = resolved.emplace_back();
    out.reserve(e.deps.size());
    for (const auto& [src_id, data] : e.deps) {
      std::uint32_t src = id_table_.find(rows, src_id);
      if (src == IdTable::kMissing) {
        const std::uint32_t earlier = batch.find(event_rows, src_id);
        if (earlier < k) src = static_cast<std::uint32_t>(n + earlier);
      }
      if (src == IdTable::kMissing) {
        throw ValidationError("task '" + e.id + "' depends on unknown task '" +
                              src_id + "'");
      }
      if (!(data >= 0)) {
        throw ValidationError("task '" + e.id + "' dependency on '" + src_id +
                              "' has negative data " + std::to_string(data));
      }
      out.emplace_back(src, data);
    }
  }

  // Phase 2: commit. First write to a mapped arena copies the columns out.
  ensure_owned();
  bool batch_has_deps = false;
  for (const auto& r : resolved) {
    if (!r.empty()) {
      batch_has_deps = true;
      break;
    }
  }
  if (batch_has_deps && dep_off_.empty()) materialize_dep_offsets();
  for (std::size_t ev = 0; ev < events.size(); ++ev) {
    const Event& e = events[ev];
    const auto i = static_cast<std::uint32_t>(task_count());
    start_.owned().push_back(e.start);
    end_.owned().push_back(e.end);

    // Interned pointers compare equal exactly when the types do.
    const std::string* type = detail::intern_task_type(e.type);
    const auto slot = static_cast<std::uint32_t>(
        std::find(interned_types_.begin(), interned_types_.end(), type) -
        interned_types_.begin());
    if (slot == types_.size()) {
      types_.push_back(e.type);
      interned_types_.push_back(type);
    }
    type_id_.owned().push_back(slot);

    auto& id_pool = id_pool_.owned();
    id_pool.insert(id_pool.end(), e.id.begin(), e.id.end());
    id_off_.owned().push_back(id_pool.size());

    cfg_cluster_.owned().push_back(e.cluster_id);
    ranges_.owned().push_back(HostRange{e.host_start, e.host_nb});
    range_off_.owned().push_back(
        static_cast<std::uint32_t>(ranges_.size()));
    cfg_off_.owned().push_back(
        static_cast<std::uint32_t>(cfg_cluster_.size()));
    prop_off_.owned().push_back(
        static_cast<std::uint32_t>(prop_slices_.size() / 4));

    if (!dep_off_.empty()) {
      for (const auto& [src, data] : resolved[ev]) {
        dep_src_.owned().push_back(src);
        dep_data_.owned().push_back(data);
        hash_edge(src, i, data);
      }
      dep_off_.owned().push_back(dep_src_.size());
    }

    id_table_.insert(rows, i);

    PerCluster& pc = per_cluster_[e.cluster_id];
    pc.tasks.push_back(i);
    const bool fresh = !pc.any;
    if (fresh) {
      pc.range = TimeRange{e.start, e.end};
      pc.any = true;
    } else {
      pc.range.begin = std::min(pc.range.begin, e.start);
      pc.range.end = std::max(pc.range.end, e.end);
    }
    bump_density(&pc, e.start);

    if (!any_tasks_) {
      range_ = TimeRange{e.start, e.end};
      any_tasks_ = true;
    } else {
      range_.begin = std::min(range_.begin, e.start);
      range_.end = std::max(range_.end, e.end);
    }

    hash_row(i);
  }
  ++version_;
}

void ScheduleArena::intern_new_types() {
  // At a million rows a per-row intern lookup would dominate
  // materialization; each distinct type is interned once instead.
  for (std::size_t t = interned_types_.size(); t < types_.size(); ++t) {
    interned_types_.push_back(detail::intern_task_type(types_[t]));
  }
}

void ScheduleArena::materialize_dep_offsets() {
  auto& off = dep_off_.owned();
  off.assign(task_count() + 1, 0);
  if (edges_hash_ == 0) edges_hash_ = detail::kFnvOffset;
}

void ScheduleArena::bump_density(PerCluster* pc, Time start) {
  Density& d = pc->density;
  if (d.bins.empty()) {
    d.bins.assign(kDensityBins, 0);
    density_geometry(pc->range.begin, pc->range.end, &d.origin, &d.bin_width);
    ++d.bins[density_bin(d, start)];
    return;
  }
  Time origin = 0, width = 0;
  density_geometry(pc->range.begin, pc->range.end, &origin, &width);
  if (origin != d.origin || width != d.bin_width) {
    // The cluster outgrew its histogram: re-bucket the counts into the new
    // geometry. Start counts are additive, so no column rescan is needed —
    // every old bin lands wholly inside one new bin (widths are powers of
    // two and origins snap to the width grid).
    std::vector<std::uint32_t> bins(kDensityBins, 0);
    Density fresh{origin, width, std::move(bins)};
    for (std::size_t k = 0; k < d.bins.size(); ++k) {
      if (d.bins[k] == 0) continue;
      const Time t = d.origin + (static_cast<Time>(k) + 0.5) * d.bin_width;
      fresh.bins[density_bin(fresh, t)] += d.bins[k];
    }
    d = std::move(fresh);
  }
  ++d.bins[density_bin(d, start)];
}

// ---------------------------------------------------------------------------
// Accounting

void ScheduleArena::ensure_owned() {
  start_.owned();
  end_.owned();
  type_id_.owned();
  id_off_.owned();
  id_pool_.owned();
  cfg_off_.owned();
  cfg_cluster_.owned();
  range_off_.owned();
  ranges_.owned();
  prop_off_.owned();
  prop_slices_.owned();
  prop_pool_.owned();
  if (!dep_off_.empty()) dep_off_.owned();
  dep_src_.owned();
  dep_data_.owned();
  owner_.reset();
  mapped_file_bytes_ = 0;
}

std::size_t ScheduleArena::heap_bytes() const {
  std::size_t b = start_.heap_bytes() + end_.heap_bytes() +
                  type_id_.heap_bytes() + id_off_.heap_bytes() +
                  id_pool_.heap_bytes() + cfg_off_.heap_bytes() +
                  cfg_cluster_.heap_bytes() + range_off_.heap_bytes() +
                  ranges_.heap_bytes() + prop_off_.heap_bytes() +
                  prop_slices_.heap_bytes() + prop_pool_.heap_bytes() +
                  dep_off_.heap_bytes() + dep_src_.heap_bytes() +
                  dep_data_.heap_bytes();
  b += id_table_.heap_bytes();
  for (const auto& [cid, pc] : per_cluster_) {
    b += pc.tasks.capacity() * sizeof(std::uint32_t);
    b += pc.density.bins.capacity() * sizeof(std::uint32_t);
  }
  for (const auto& t : types_) b += t.capacity();
  return b;
}

std::size_t ScheduleArena::mmap_bytes() const { return mapped_file_bytes_; }

bool ScheduleArena::mmap_backed() const { return owner_ != nullptr; }

}  // namespace jedule::model
