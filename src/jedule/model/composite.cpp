#include "jedule/model/composite.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <map>
#include <tuple>
#include <utility>

#include "jedule/model/task_index.hpp"
#include "jedule/util/error.hpp"
#include "jedule/util/parallel.hpp"
#include "jedule/util/strings.hpp"

namespace jedule::model {

namespace {

struct Interval {
  std::size_t task_index;
  Time begin;
  Time end;
};

// One task allocation on a cluster: the host range plus the time interval.
struct Entry {
  HostRange range;
  Interval interval;
};

// Key identifying one composite rectangle group within a cluster: same
// member set and same time interval; hosts are merged below.
struct GroupKey {
  int cluster_id;
  Time begin;
  Time end;
  std::vector<std::size_t> members;  // sorted task indices
};

// Borrowed key: lets the sweep probe the group map with the live `active`
// vector, so the members are only copied when the group is actually new.
struct GroupKeyView {
  int cluster_id;
  Time begin;
  Time end;
  const std::vector<std::size_t>* members;
};

struct GroupKeyLess {
  using is_transparent = void;

  static std::tuple<int, Time, Time, const std::vector<std::size_t>&> tie(
      const GroupKey& k) {
    return {k.cluster_id, k.begin, k.end, k.members};
  }
  static std::tuple<int, Time, Time, const std::vector<std::size_t>&> tie(
      const GroupKeyView& k) {
    return {k.cluster_id, k.begin, k.end, *k.members};
  }

  template <typename A, typename B>
  bool operator()(const A& a, const B& b) const {
    return tie(a) < tie(b);
  }
};

// Host lists are built as sorted coalesced ranges directly: slabs arrive in
// ascending host order, so touching ranges merge as they are appended.
using GroupMap = std::map<GroupKey, std::vector<HostRange>, GroupKeyLess>;

void append_group_slab(GroupMap& groups, int cluster_id, Time begin, Time end,
                       const std::vector<std::size_t>& active, HostRange slab) {
  const GroupKeyView view{cluster_id, begin, end, &active};
  auto it = groups.lower_bound(view);
  if (it == groups.end() || GroupKeyLess{}(view, it->first)) {
    it = groups.emplace_hint(it, GroupKey{cluster_id, begin, end, active},
                             std::vector<HostRange>());
  }
  auto& ranges = it->second;
  if (!ranges.empty() && ranges.back().start + ranges.back().nb == slab.start) {
    ranges.back().nb += slab.nb;
  } else {
    ranges.push_back(slab);
  }
}

// A slab of hosts of one cluster over which every participating allocation
// either covers all hosts or none — so all its hosts share one interval
// list and one sweep covers the whole slab.
struct Slab {
  int cluster_id;
  HostRange hosts;
  std::vector<Interval> intervals;
};

// Sweep one slab's intervals, emitting (members, t0, t1) segments where
// >= 2 tasks are simultaneously active; accumulates the slab's host range
// into `groups`.
void sweep_slab(const Slab& slab, GroupMap& groups) {
  struct Event {
    Time time;
    bool is_start;
    std::size_t task_index;
  };
  std::vector<Event> events;
  events.reserve(slab.intervals.size() * 2);
  for (const auto& iv : slab.intervals) {
    events.push_back(Event{iv.begin, true, iv.task_index});
    events.push_back(Event{iv.end, false, iv.task_index});
  }
  // Ends sort before starts at equal times, so half-open touching
  // intervals never co-occur.
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.is_start != b.is_start) return !a.is_start;
    return a.task_index < b.task_index;
  });

  std::vector<std::size_t> active;  // kept sorted
  std::size_t e = 0;
  Time prev_time = 0;
  bool have_prev = false;
  while (e < events.size()) {
    const Time now = events[e].time;
    if (have_prev && active.size() >= 2 && now > prev_time) {
      append_group_slab(groups, slab.cluster_id, prev_time, now, active,
                        slab.hosts);
    }
    while (e < events.size() && events[e].time == now) {
      if (events[e].is_start) {
        active.insert(
            std::lower_bound(active.begin(), active.end(),
                             events[e].task_index),
            events[e].task_index);
      } else {
        auto it = std::lower_bound(active.begin(), active.end(),
                                   events[e].task_index);
        JED_ASSERT(it != active.end() && *it == events[e].task_index);
        active.erase(it);
      }
      ++e;
    }
    prev_time = now;
    have_prev = true;
  }
}

// One entry as the overlap pre-pass visits it: times, index, and the slabs
// [k0, k1) its host range covers.
struct Visit {
  Time begin;
  Time end;
  std::uint32_t entry, k0, k1;
};

// One cluster's host axis cut at every allocation boundary: slab k spans
// hosts [cuts[k], cuts[k+1]). Within a slab every host sees the same
// intervals, so the sweep cost scales with the number of distinct host
// ranges, not the number of hosts a range spans.
struct HostCuts {
  std::vector<int> cuts;
  std::vector<Visit> visits;  // one per entry, in entry order
  std::size_t slab_visits = 0;  // sum of k1 - k0: the marking pass's work
};

HostCuts cut_host_axis(const std::vector<Entry>& entries) {
  int max_end = 0;
  for (const auto& entry : entries) {
    max_end = std::max(max_end, entry.range.start + entry.range.nb);
  }

  // Boundary values are host indices, so when they are dense relative to
  // the entry count a bucket pass replaces the O(E log E) sort and the
  // per-entry binary searches; sparse/huge clusters fall back to sorting.
  HostCuts out;
  auto& cuts = out.cuts;
  std::vector<std::uint32_t> cut_index;  // value -> position in `cuts`
  const std::size_t bound = static_cast<std::size_t>(max_end) + 1;
  const bool dense = bound <= entries.size() * 4 + 1024;
  if (dense) {
    std::vector<char> mark(bound, 0);
    for (const auto& entry : entries) {
      mark[static_cast<std::size_t>(entry.range.start)] = 1;
      mark[static_cast<std::size_t>(entry.range.start + entry.range.nb)] = 1;
    }
    cut_index.assign(bound, 0);
    for (std::size_t v = 0; v < bound; ++v) {
      if (mark[v]) {
        cut_index[v] = static_cast<std::uint32_t>(cuts.size());
        cuts.push_back(static_cast<int>(v));
      }
    }
  } else {
    cuts.reserve(entries.size() * 2);
    for (const auto& entry : entries) {
      cuts.push_back(entry.range.start);
      cuts.push_back(entry.range.start + entry.range.nb);
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  }
  const auto index_of = [&](int value) {
    if (dense) return cut_index[static_cast<std::size_t>(value)];
    // Both bounds are cuts, so lower_bound lands exactly on them.
    return static_cast<std::uint32_t>(
        std::lower_bound(cuts.begin(), cuts.end(), value) - cuts.begin());
  };
  // Slab indices stay below 2 * entries, so 32 bits hold every index.
  JED_ASSERT(entries.size() < std::numeric_limits<std::uint32_t>::max() / 2);
  out.visits.reserve(entries.size());
  for (std::size_t e = 0; e < entries.size(); ++e) {
    const Entry& entry = entries[e];
    out.visits.push_back({entry.interval.begin, entry.interval.end,
                          static_cast<std::uint32_t>(e),
                          index_of(entry.range.start),
                          index_of(entry.range.start + entry.range.nb)});
    out.slab_visits += out.visits.back().k1 - out.visits.back().k0;
  }
  return out;
}

// `begin` as bits whose unsigned order is time order (-0.0 folded into
// +0.0, so equal times give equal bits).
std::uint64_t begin_bits(const Visit& v) {
  const Time t = v.begin + 0.0;
  std::uint64_t u;
  std::memcpy(&u, &t, sizeof u);
  return (u >> 63) ? ~u : u | (std::uint64_t{1} << 63);
}

// Puts the visits (laid out by entry index) in (begin, entry index) order
// with a stable LSD radix sort on begin_bits, 11-bit digits. Up to
// `threads` contiguous chunks count and scatter their own visits in
// parallel; offsets are laid out digit-major, chunk-minor, so every
// chunking yields the one stable order. Digits shared by every visit are
// skipped.
void sort_visits(std::vector<Visit>& visits, int threads) {
  const std::size_t n = visits.size();
  const std::size_t chunks =
      std::min<std::size_t>(std::max<std::size_t>(n, 1),
                            static_cast<std::size_t>(std::max(threads, 1)));
  const auto bound = [&](std::size_t c) { return n * c / chunks; };
  std::uint64_t varying = 0;  // bits that differ between some visits
  for (const Visit& v : visits) {
    varying |= begin_bits(v) ^ begin_bits(visits[0]);
  }
  std::vector<std::vector<std::size_t>> at(chunks);
  std::vector<Visit> buffer(n);
  for (int shift = 0; shift < 64; shift += 11) {
    if (((varying >> shift) & 2047) == 0) continue;
    const auto digit = [shift](const Visit& v) {
      return (begin_bits(v) >> shift) & 2047;
    };
    util::parallel_for(chunks, threads, [&](std::size_t c) {
      at[c].assign(2048, 0);
      for (std::size_t i = bound(c); i < bound(c + 1); ++i) {
        ++at[c][digit(visits[i])];
      }
    });
    std::size_t sum = 0;
    for (std::size_t b = 0; b < 2048; ++b) {
      for (auto& count : at) sum += std::exchange(count[b], sum);
    }
    util::parallel_for(chunks, threads, [&](std::size_t c) {
      for (std::size_t i = bound(c); i < bound(c + 1); ++i) {
        buffer[at[c][digit(visits[i])]++] = visits[i];
      }
    });
    visits.swap(buffer);
  }
}

// Overlap pre-pass: sorts `cut.visits` and marks every entry that shares a
// slab with another entry for some instant; an empty result means no entry
// overlaps. Each slab keeps the latest end seen so far and the entry owning
// it; an entry beginning before that end overlaps the owner, so both are
// marked (why this marks every overlapping entry: DESIGN.md §4c). Sharded
// over contiguous slab ranges, each shard owning its slabs' state, with the
// per-shard marks OR-merged.
std::vector<char> mark_overlaps(HostCuts& cut, int threads) {
  sort_visits(cut.visits, threads);
  const std::size_t slabs = cut.cuts.size() - 1;
  // A shard per ~1M slab visits at most: each shard streams every visit.
  const std::size_t shards =
      std::min({slabs, static_cast<std::size_t>(std::max(threads, 1)),
                1 + cut.slab_visits / (std::size_t{1} << 20)});
  std::vector<Time> latest(slabs, -std::numeric_limits<Time>::infinity());
  std::vector<std::uint32_t> owner(slabs, 0);
  std::vector<std::vector<char>> marks(shards);  // allocated on first mark
  util::parallel_for(shards, threads, [&](std::size_t s) {
    const std::size_t lo = slabs * s / shards;
    const std::size_t hi = slabs * (s + 1) / shards;
    auto& mark = marks[s];
    for (const Visit& v : cut.visits) {
      const std::size_t k1 = std::min<std::size_t>(v.k1, hi);
      for (std::size_t k = std::max<std::size_t>(v.k0, lo); k < k1; ++k) {
        if (v.begin < latest[k]) {
          if (mark.empty()) mark.assign(cut.visits.size(), 0);
          mark[v.entry] = mark[owner[k]] = 1;
        }
        if (v.end > latest[k]) {
          latest[k] = v.end;
          owner[k] = v.entry;
        }
      }
    }
  });
  std::vector<char> out;
  for (auto& mark : marks) {
    if (out.empty()) out.swap(mark);
    for (std::size_t e = 0; e < mark.size(); ++e) out[e] |= mark[e];
  }
  return out;
}

// Builds the per-slab interval lists from the overlapping entries only. An
// entry that overlaps nothing is never part of a multi-occupied region, so
// dropping it changes no segment; slabs left with fewer than two intervals
// are skipped, and a cluster without overlap yields no slabs at all.
std::vector<Slab> build_slabs(
    const std::map<int, std::vector<Entry>>& per_cluster, int threads) {
  std::vector<Slab> slabs;
  for (const auto& [cluster_id, entries] : per_cluster) {
    HostCuts cut = cut_host_axis(entries);
    const std::vector<char> marked = mark_overlaps(cut, threads);
    if (marked.empty()) continue;

    const auto& cuts = cut.cuts;
    std::vector<std::vector<Interval>> lists(cuts.size() - 1);
    for (const Visit& v : cut.visits) {
      if (!marked[v.entry]) continue;
      for (std::size_t k = v.k0; k < v.k1; ++k) {
        lists[k].push_back(entries[v.entry].interval);
      }
    }
    for (std::size_t k = 0; k + 1 < cuts.size(); ++k) {
      if (lists[k].size() < 2) continue;  // no overlap possible
      slabs.push_back(Slab{cluster_id, HostRange{cuts[k], cuts[k + 1] - cuts[k]},
                           std::move(lists[k])});
    }
  }
  return slabs;
}

// Appends task `i`'s allocations to the per-cluster entry lists, applying
// the participation filters (predicate, zero-area).
void add_task_entries(const std::vector<Task>& tasks, std::size_t i,
                      const std::function<bool(const Task&)>& include_task,
                      std::map<int, std::vector<Entry>>* per_cluster) {
  const Task& t = tasks[i];
  if (include_task && !include_task(t)) return;
  if (!(t.end_time() > t.start_time())) return;  // zero area
  for (const auto& cfg : t.configurations()) {
    for (const auto& range : cfg.hosts) {
      (*per_cluster)[cfg.cluster_id].push_back(
          Entry{range, Interval{i, t.start_time(), t.end_time()}});
    }
  }
}

// Slab build + sharded sweep + deterministic merge: the thread-count
// invariant pipeline shared by the full synthesis and the append path.
GroupMap sweep_groups(const std::map<int, std::vector<Entry>>& per_cluster,
                      int threads) {
  // Slabs are emitted in ascending (cluster, host) order so the sweep can be
  // partitioned into contiguous shards, one per worker slot.
  std::vector<Slab> slabs = build_slabs(per_cluster, threads);

  const std::size_t shards = std::min<std::size_t>(
      slabs.size(), threads < 1 ? 1 : static_cast<std::size_t>(threads));
  std::vector<GroupMap> shard_groups(shards > 0 ? shards : 1);
  util::parallel_for(shards, threads, [&](std::size_t s) {
    const std::size_t begin = slabs.size() * s / shards;
    const std::size_t end = slabs.size() * (s + 1) / shards;
    for (std::size_t k = begin; k < end; ++k) {
      sweep_slab(slabs[k], shard_groups[s]);
    }
  });

  // Merge shards in ascending slab order: a group's host ranges end up
  // exactly as the serial sweep would have produced them (coalescing across
  // the shard seam), so the result never depends on the thread count.
  GroupMap groups = std::move(shard_groups[0]);
  for (std::size_t s = 1; s < shards; ++s) {
    auto& src = shard_groups[s];
    for (auto it = src.begin(); it != src.end();) {
      const auto next = std::next(it);
      auto dst = groups.lower_bound(it->first);
      if (dst != groups.end() && !groups.key_comp()(it->first, dst->first)) {
        auto& merged = dst->second;
        auto& incoming = it->second;
        std::size_t from = 0;
        if (!merged.empty() && !incoming.empty() &&
            merged.back().start + merged.back().nb == incoming.front().start) {
          merged.back().nb += incoming.front().nb;
          from = 1;
        }
        merged.insert(merged.end(), incoming.begin() + from, incoming.end());
      } else {
        groups.insert(dst, src.extract(it));
      }
      it = next;
    }
  }
  return groups;
}

// Materializes one composite task per group, in GroupMap key order:
// (cluster_id, begin, end, member indices) ascending.
std::vector<Composite> materialize(GroupMap&& groups,
                                   const std::vector<Task>& tasks) {
  std::vector<Composite> out;
  out.reserve(groups.size());
  for (auto& [key, ranges] : groups) {
    Composite comp;
    std::vector<std::string> ids;
    ids.reserve(key.members.size());
    for (std::size_t idx : key.members) {
      ids.push_back(tasks[idx].id());
      comp.member_types.insert(tasks[idx].type());
    }
    comp.task.set_id(util::join(ids, "+"));
    comp.member_ids = std::move(ids);
    comp.member_indices = key.members;
    comp.task.set_type("composite");
    comp.task.set_times(key.begin, key.end);
    Configuration cfg;
    cfg.cluster_id = key.cluster_id;
    cfg.hosts = std::move(ranges);
    comp.task.add_configuration(std::move(cfg));
    out.push_back(std::move(comp));
  }
  return out;
}

// The GroupMap key order, recovered from a materialized composite — the
// merge order of append_composites. Keys are distinct across the cut, so
// head + tail merge reproduces the full-sweep order exactly.
bool composite_less(const Composite& a, const Composite& b) {
  const int ca = a.task.configurations().front().cluster_id;
  const int cb = b.task.configurations().front().cluster_id;
  if (ca != cb) return ca < cb;
  if (a.task.start_time() != b.task.start_time()) {
    return a.task.start_time() < b.task.start_time();
  }
  if (a.task.end_time() != b.task.end_time()) {
    return a.task.end_time() < b.task.end_time();
  }
  return a.member_indices < b.member_indices;
}

}  // namespace

std::vector<Composite> synthesize_composites(
    const Schedule& schedule,
    const std::function<bool(const Task&)>& include_task, int threads) {
  const auto& tasks = schedule.tasks();

  // Per-cluster allocation lists; hosts stay as ranges throughout — the
  // sweep works per boundary-delimited slab, so the cost is in the number
  // of ranges, never in the hosts they expand to.
  std::map<int, std::vector<Entry>> per_cluster;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    add_task_entries(tasks, i, include_task, &per_cluster);
  }
  return materialize(sweep_groups(per_cluster, threads), tasks);
}

std::vector<Composite> append_composites(
    const Schedule& schedule, const TaskIndex& index,
    std::vector<Composite> cached, std::size_t first_new,
    const std::function<bool(const Task&)>& include_task, int threads) {
  const auto& tasks = schedule.tasks();
  JED_ASSERT(index.task_count() == tasks.size());
  JED_ASSERT(first_new <= tasks.size());
  if (first_new >= tasks.size()) return cached;
  if (first_new == 0) {
    return synthesize_composites(schedule, include_task, threads);
  }

  // The initial cut: the earliest participating appended task.
  bool any_new = false;
  Time t_cut = 0;
  for (std::size_t i = first_new; i < tasks.size(); ++i) {
    const Task& t = tasks[i];
    if (include_task && !include_task(t)) continue;
    if (!(t.end_time() > t.start_time())) continue;
    if (!any_new || t.start_time() < t_cut) t_cut = t.start_time();
    any_new = true;
  }
  if (!any_new) return cached;

  // Fixpoint: lower t_cut until no included task strictly straddles it.
  // Each straddler can lower the cut at most once (to its own begin), so
  // the loop terminates; the guard caps pathological nesting chains with
  // a full resweep, which is always correct.
  for (int guard = 0;; ++guard) {
    if (guard >= 256) {
      return synthesize_composites(schedule, include_task, threads);
    }
    Time lowest = t_cut;
    for (const auto& cluster : schedule.clusters()) {
      index.query(cluster.id, t_cut, t_cut, [&](const TaskIndex::Entry& e) {
        if (!(e.begin < t_cut && e.end > t_cut)) return;
        const Task& t = tasks[e.task];
        if (include_task && !include_task(t)) return;
        lowest = std::min(lowest, e.begin);
      });
    }
    if (lowest == t_cut) break;
    t_cut = lowest;
  }

  // Head: cached composites entirely before the cut, kept verbatim. A
  // composite's members are all active over its whole interval, so a
  // composite straddling the cut would imply straddling members — the
  // fixpoint ruled those out; every cached composite falls cleanly on
  // one side.
  std::vector<Composite> head;
  head.reserve(cached.size());
  for (auto& comp : cached) {
    JED_ASSERT(comp.task.end_time() <= t_cut ||
               comp.task.start_time() >= t_cut);
    if (comp.task.end_time() <= t_cut) head.push_back(std::move(comp));
  }

  // Tail: every included task at or after the cut, found via the index
  // (the closed-interval query also reports tasks ending exactly at the
  // cut; the start >= t_cut filter drops them — with no straddlers,
  // end > t_cut and start >= t_cut coincide for positive-area tasks).
  std::vector<std::uint32_t> subset;
  for (const auto& cluster : schedule.clusters()) {
    index.collect_tasks(cluster.id, t_cut,
                        std::numeric_limits<double>::infinity(), &subset);
  }
  std::sort(subset.begin(), subset.end());
  subset.erase(std::unique(subset.begin(), subset.end()), subset.end());

  std::map<int, std::vector<Entry>> per_cluster;
  for (std::uint32_t i : subset) {
    if (tasks[i].start_time() < t_cut) continue;
    add_task_entries(tasks, i, include_task, &per_cluster);
  }
  std::vector<Composite> tail =
      materialize(sweep_groups(per_cluster, threads), tasks);

  // Both halves are already in GroupMap order with distinct keys; the
  // merge reproduces the full-sweep output exactly.
  std::vector<Composite> out;
  out.reserve(head.size() + tail.size());
  std::merge(std::make_move_iterator(head.begin()),
             std::make_move_iterator(head.end()),
             std::make_move_iterator(tail.begin()),
             std::make_move_iterator(tail.end()), std::back_inserter(out),
             composite_less);
  return out;
}

bool has_resource_conflicts(
    const Schedule& schedule,
    const std::function<bool(const Task&)>& include_task) {
  const auto& tasks = schedule.tasks();
  std::map<int, std::vector<Entry>> per_cluster;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    add_task_entries(tasks, i, include_task, &per_cluster);
  }
  // Some entry is marked exactly when some composite exists.
  return std::any_of(per_cluster.begin(), per_cluster.end(), [](auto& c) {
    HostCuts cut = cut_host_axis(c.second);
    return !mark_overlaps(cut, 1).empty();
  });
}

Schedule with_composites(const Schedule& schedule) {
  Schedule out = schedule;
  auto composites = synthesize_composites(schedule);
  // Composite ids are concatenations of member ids; when the same member set
  // overlaps in several disjoint rectangles the id would repeat, and a
  // schedule task may already carry it, so a disambiguating suffix keeps
  // task ids unique (validate() requires it).
  std::set<std::string> taken;
  for (const auto& t : schedule.tasks()) taken.insert(t.id());
  std::map<std::string, int> suffix;
  for (auto& comp : composites) {
    Task t = std::move(comp.task);
    const std::string base = t.id();
    for (int& n = suffix[base]; !taken.insert(t.id()).second;) {
      t.set_id(base + "#" + std::to_string(++n));
    }
    t.set_property("members", util::join(comp.member_ids, ","));
    std::vector<std::string> types(comp.member_types.begin(),
                                   comp.member_types.end());
    t.set_property("member_types", util::join(types, ","));
    out.add_task(std::move(t));
  }
  return out;
}

}  // namespace jedule::model
