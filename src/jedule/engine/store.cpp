#include "jedule/engine/store.hpp"

#include <algorithm>
#include <utility>

#include "jedule/io/file.hpp"
#include "jedule/io/registry.hpp"
#include "jedule/model/fnv.hpp"
#include "jedule/util/error.hpp"
#include "jedule/util/strings.hpp"

namespace jedule::engine {

namespace {

std::string hex_id(std::uint64_t hash) {
  static const char* kDigits = "0123456789abcdef";
  std::string id(16, '0');
  for (int i = 15; i >= 0; --i) {
    id[static_cast<std::size_t>(i)] = kDigits[hash & 0xf];
    hash >>= 4;
  }
  return id;
}

// Rough resident footprint of a materialized AoS schedule; exact
// accounting would walk every string's capacity, which isn't worth it for
// a /stats gauge. Computed once, by the first resident() call.
std::size_t estimate_schedule_bytes(const model::Schedule& s) {
  std::size_t n = s.tasks().capacity() * sizeof(model::Task);
  for (const auto& t : s.tasks()) {
    n += t.id().size();
    for (const auto& cfg : t.configurations()) {
      n += sizeof(model::Configuration) +
           cfg.hosts.size() * sizeof(model::HostRange);
    }
    for (const auto& [k, v] : t.properties()) n += k.size() + v.size();
  }
  return n;
}

// The entry's identity hash: the task hash folded with the edge hash when
// edges exist — the same fold as ScheduleArena::combined_hash, so AoS,
// snapshot and append ingest all agree on the id of identical content.
std::uint64_t combined_hash_of(std::uint64_t tasks_hash,
                               const model::EdgeIndex& edges) {
  if (edges.empty()) return tasks_hash;
  std::uint64_t h = tasks_hash;
  model::detail::fnv_u64(&h, edges.edges_hash());
  model::detail::fnv_u64(&h, edges.edge_count());
  return h;
}

}  // namespace

ScheduleEntry::ScheduleEntry(model::Schedule schedule_in,
                             std::string source_in, io::IngestStats ingest_in)
    : source(std::move(source_in)), ingest(std::move(ingest_in)) {
  schedule_ = std::make_shared<const model::Schedule>(std::move(schedule_in));
  // The parse's worker count also sizes the index build: per-cluster
  // segments sort concurrently, output identical at any thread count.
  index = model::TaskIndex(*schedule_, std::max(1, ingest.threads));
  if (!schedule_->dependencies().empty()) {
    edges = model::EdgeIndex(*schedule_, std::max(1, ingest.threads));
  }
  content_hash = combined_hash_of(index.content_hash(), edges);
  id = hex_id(content_hash);
  if (const auto range = index.time_range()) full_range = *range;
  first_new_ = task_count();
}

ScheduleEntry::ScheduleEntry(io::Snapshot snapshot, std::string source_in)
    : source(std::move(source_in)),
      index(std::move(snapshot.index)),
      edges(std::move(snapshot.edges)) {
  auto arena =
      std::make_shared<model::ScheduleArena>(std::move(snapshot.arena));
  // parse_snapshot checked structure and hashes; every other invariant
  // still runs over the columns. Duplicate-id certification happened at
  // save time, and the first append builds the arena's id table, so
  // reopening a million-task snapshot never hashes a million id strings.
  model::TaskView(*arena).validate_except_ids();
  arena_ = std::move(arena);
  content_hash = combined_hash_of(index.content_hash(), edges);
  id = hex_id(content_hash);
  if (const auto range = index.time_range()) full_range = *range;
  first_new_ = task_count();
}

ScheduleEntry::ScheduleEntry(
    const ScheduleEntry& base,
    const std::vector<model::ScheduleArena::Event>& events)
    : source(base.source) {
  auto arena = std::make_shared<model::ScheduleArena>(base.arena());
  const std::size_t first = arena->task_count();
  arena->append(events);  // throws ValidationError, base untouched
  arena_ = std::move(arena);
  index = model::TaskIndex(base.index, *arena_, first);
  if (arena_->dep_count() > 0) {
    // Built entries have a non-empty edge index exactly when edges exist,
    // so a non-empty base extends in O(delta); the rare first-ever edge
    // arriving via append pays one full build.
    edges = base.edges.empty()
                ? model::EdgeIndex(*arena_)
                : model::EdgeIndex(base.edges, *arena_, first);
  }
  content_hash = combined_hash_of(index.content_hash(), edges);
  id = hex_id(content_hash);
  if (const auto range = index.time_range()) full_range = *range;
  first_new_ = first;
  {
    // Only adopt a composite list the base actually computed — never
    // force one into existence just to extend it.
    std::lock_guard<std::mutex> lock(base.lazy_mu_);
    base_composites_ = base.composites_;
  }
}

const model::Schedule& ScheduleEntry::schedule_locked() const {
  if (!schedule_) {
    schedule_ =
        std::make_shared<const model::Schedule>(arena_->to_schedule());
  }
  return *schedule_;
}

model::TaskView ScheduleEntry::tasks() const {
  std::lock_guard<std::mutex> lock(lazy_mu_);
  if (schedule_) return model::TaskView(*schedule_);
  return model::TaskView(*arena_);
}

const model::Schedule& ScheduleEntry::schedule() const {
  std::lock_guard<std::mutex> lock(lazy_mu_);
  return schedule_locked();
}

const model::ScheduleArena& ScheduleEntry::arena() const {
  std::lock_guard<std::mutex> lock(lazy_mu_);
  if (!arena_) {
    arena_ = std::make_shared<const model::ScheduleArena>(*schedule_);
  }
  return *arena_;
}

std::shared_ptr<const std::vector<model::Composite>> ScheduleEntry::composites(
    int threads) const {
  std::lock_guard<std::mutex> lock(lazy_mu_);
  if (composites_) return composites_;
  const model::Schedule& s = schedule_locked();
  std::vector<model::Composite> list;
  if (base_composites_ != nullptr) {
    list = model::append_composites(s, index, *base_composites_, first_new_,
                                    nullptr, threads);
  } else {
    list = model::synthesize_composites(s, nullptr, threads);
  }
  composites_ =
      std::make_shared<const std::vector<model::Composite>>(std::move(list));
  base_composites_.reset();
  return composites_;
}

ScheduleEntry::Resident ScheduleEntry::resident() const {
  std::lock_guard<std::mutex> lock(lazy_mu_);
  Resident r;
  if (arena_) {
    r.mmap_bytes = arena_->mmap_bytes();
    r.heap_bytes = arena_->heap_bytes();
  }
  if (schedule_) {
    if (!aos_bytes_) aos_bytes_ = estimate_schedule_bytes(*schedule_);
    r.heap_bytes += *aos_bytes_;
  }
  if (composites_) {
    r.heap_bytes += composites_->size() * sizeof(model::Composite);
  }
  r.heap_bytes += edges.heap_bytes();
  return r;
}

EntryPtr make_entry(model::Schedule schedule, std::string source,
                    io::IngestStats ingest) {
  schedule.validate();
  return std::make_shared<const ScheduleEntry>(
      std::move(schedule), std::move(source), std::move(ingest));
}

// The parser-backed paths below skip make_entry's validate(): every
// registered reader already returns a validated schedule (the
// ScheduleParser contract), so a second pass would only repeat it.
EntryPtr parse_entry(std::string content, const std::string& name_hint,
                     const std::string& format, const io::IngestOptions& opt) {
  io::IngestStats stats;
  model::Schedule schedule =
      io::parse_schedule(std::move(content), name_hint, format, opt, &stats);
  return std::make_shared<const ScheduleEntry>(std::move(schedule), name_hint,
                                               std::move(stats));
}

EntryPtr load_entry(const std::string& path, const std::string& format,
                    const io::IngestOptions& opt) {
  if ((format.empty() && util::ends_with(path, ".jbin")) ||
      format == "jbin") {
    return std::make_shared<const ScheduleEntry>(io::load_snapshot(path),
                                                 path);
  }
  io::IngestStats stats;
  model::Schedule schedule = io::load_schedule(path, format, opt, &stats);
  return std::make_shared<const ScheduleEntry>(std::move(schedule), path,
                                               std::move(stats));
}

EntryPtr append_entry(const EntryPtr& base,
                      const std::vector<model::ScheduleArena::Event>& events) {
  JED_ASSERT(base != nullptr);
  return std::make_shared<const ScheduleEntry>(*base, events);
}

ScheduleStore::PutResult ScheduleStore::put(EntryPtr entry) {
  JED_ASSERT(entry != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.puts;
  if (auto it = entries_.find(entry->id); it != entries_.end()) {
    ++stats_.dedup_hits;
    lru_.splice(lru_.begin(), lru_, it->second.lru);
    return {it->second.entry, true};
  }
  lru_.push_front(entry->id);
  tasks_ += entry->task_count();
  entries_.emplace(entry->id, Slot{entry, lru_.begin()});
  evict_over_budget_locked();
  return {std::move(entry), false};
}

EntryPtr ScheduleStore::find(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.lookups;
  auto it = entries_.find(id);
  if (it == entries_.end()) {
    ++stats_.lookup_misses;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru);
  return it->second.entry;
}

bool ScheduleStore::erase(const std::string& id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(id);
  if (it == entries_.end()) return false;
  tasks_ -= it->second.entry->task_count();
  lru_.erase(it->second.lru);
  entries_.erase(it);
  return true;
}

std::vector<EntryPtr> ScheduleStore::list() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<EntryPtr> out;
  out.reserve(entries_.size());
  for (const auto& id : lru_) out.push_back(entries_.at(id).entry);
  return out;
}

ScheduleStore::Stats ScheduleStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.entries = entries_.size();
  s.tasks = tasks_;
  for (const auto& [id, slot] : entries_) {
    const ScheduleEntry::Resident r = slot.entry->resident();
    s.resident_mmap_bytes += r.mmap_bytes;
    s.resident_heap_bytes += r.heap_bytes;
    s.ingest_mapped_bytes += slot.entry->ingest.mapped_bytes;
  }
  return s;
}

void ScheduleStore::evict_over_budget_locked() {
  auto over = [this] {
    return (opt_.max_entries != 0 && entries_.size() > opt_.max_entries) ||
           (opt_.max_tasks != 0 && tasks_ > opt_.max_tasks);
  };
  // Never evict the most recent entry: the one just put() must survive its
  // own admission even when it alone exceeds the task budget.
  while (entries_.size() > 1 && over()) {
    const std::string victim = lru_.back();
    auto it = entries_.find(victim);
    tasks_ -= it->second.entry->task_count();
    lru_.pop_back();
    entries_.erase(it);
    ++stats_.evictions;
  }
}

}  // namespace jedule::engine
