#pragma once

// jedule::engine — the frontend-neutral core the CLI, the interactive view
// loop and `jedule serve` all sit on (DESIGN.md §4f). This header owns the
// schedule side: an ingested schedule becomes one immutable, shareable
// ScheduleEntry (validated schedule + spatial index + content hash), and
// ScheduleStore keeps entries addressable by content hash so identical
// uploads deduplicate and every frontend views the same object.
//
// Ownership model: entries are immutable after construction and handed out
// as shared_ptr<const ScheduleEntry>. The store's LRU eviction only drops
// its own reference — a Session viewing the entry or a render in flight
// keeps it alive, so eviction can never invalidate an ongoing request.

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "jedule/io/ingest.hpp"
#include "jedule/io/snapshot.hpp"
#include "jedule/model/arena.hpp"
#include "jedule/model/composite.hpp"
#include "jedule/model/edge_index.hpp"
#include "jedule/model/schedule.hpp"
#include "jedule/model/task_index.hpp"

namespace jedule::engine {

/// One ingested schedule: validated once, indexed once, hashed once.
/// Everything downstream (layout culling, tile caching, artifact caching,
/// dedup) keys off `content_hash`; `id` is its 16-digit hex spelling and
/// doubles as the HTTP resource name.
///
/// An entry carries up to two representations of the task table: the AoS
/// model::Schedule (what layout and the exporters consume) and the
/// columnar model::ScheduleArena (what snapshots and the live-append path
/// produce). Each materializes lazily from the other on first use, so a
/// `.jbin` load stays a zero-copy validation pass over the mapping until
/// someone actually renders, and an appended entry defers the O(n) AoS
/// rebuild the same way. The identity surface (id, content_hash, index,
/// full_range) is always eager.
struct ScheduleEntry {
  /// AoS ingest: indexes and hashes an already-validated schedule (parser
  /// output, or make_entry after its validate()). `ingest_in` records what
  /// the parse did (threads, chunks, gzip, mapped input); its thread count
  /// also drives the parallel TaskIndex build.
  ScheduleEntry(model::Schedule schedule_in, std::string source_in,
                io::IngestStats ingest_in = {});

  /// Snapshot ingest: adopts the loaded (possibly mmapped) columns and
  /// prebuilt index; runs the columnar semantic validation, never the
  /// AoS materialization.
  ScheduleEntry(io::Snapshot snapshot, std::string source_in);

  /// O(delta) append: flat-copies the base's columns, appends and
  /// validates only `events`, and extends index/hash incrementally.
  /// Throws ValidationError (base unchanged) on invalid events.
  ScheduleEntry(const ScheduleEntry& base,
                const std::vector<model::ScheduleArena::Event>& events);

  std::string id;
  /// Identity of the entry's full content: the task-column hash folded
  /// with the dependency-edge hash when edges exist (equal to the task
  /// hash otherwise, so edge-free ids match pre-edge builds). Everything
  /// keyed off it — artifact caches, tile caches, ETags — invalidates
  /// when either tasks or edges change.
  std::uint64_t content_hash = 0;
  std::string source;  // originating path / upload name hint (may be empty)
  /// How this entry was ingested (io::IngestStats; default-empty for
  /// snapshot and append entries, which never ran a text parse).
  io::IngestStats ingest;
  model::TaskIndex index;
  /// Dependency-edge index; empty when the schedule carries no edges
  /// (built only when dependencies exist, so edge-free ingest pays
  /// nothing).
  model::EdgeIndex edges;
  model::TimeRange full_range{0, 1};  // {0, 1} for an empty schedule

  std::size_t task_count() const { return index.task_count(); }

  /// Cluster count without forcing a representation into existence.
  std::size_t cluster_count() const;

  /// The AoS schedule, materialized from the columns on first use.
  const model::Schedule& schedule() const;

  /// The columnar arena, built from the AoS schedule on first use.
  const model::ScheduleArena& arena() const;

  /// The unfiltered composite list (synthesized on first use; append
  /// entries extend their base's already-computed list in O(tail) via
  /// model::append_composites instead of resweeping).
  std::shared_ptr<const std::vector<model::Composite>> composites(
      int threads = 1) const;

  /// Resident-memory accounting for /stats: bytes still served straight
  /// off a snapshot mapping vs heap bytes (columns + index-visible copies
  /// + the AoS/composite materializations once they exist).
  struct Resident {
    std::size_t mmap_bytes = 0;
    std::size_t heap_bytes = 0;
  };
  Resident resident() const;

 private:
  const model::Schedule& schedule_locked() const;

  mutable std::mutex lazy_mu_;
  mutable std::shared_ptr<const model::Schedule> schedule_;
  mutable std::shared_ptr<const model::ScheduleArena> arena_;
  mutable std::shared_ptr<const std::vector<model::Composite>> composites_;
  mutable std::size_t aos_bytes_ = 0;  // estimate, set at materialization
  // Append provenance: the base's composite list (when it was already
  // computed) and the first appended task index, so composites() can
  // extend instead of resynthesize.
  mutable std::shared_ptr<const std::vector<model::Composite>>
      base_composites_;
  std::size_t first_new_ = 0;
};

using EntryPtr = std::shared_ptr<const ScheduleEntry>;

/// Wraps an in-memory schedule: validates, builds the index, hashes.
/// Throws ValidationError on an invalid schedule.
EntryPtr make_entry(model::Schedule schedule, std::string source = "",
                    io::IngestStats ingest = {});

/// Parses in-memory trace bytes (gzip-sniffed, io::parse_schedule) into an
/// entry — the `jedule serve` upload path. The reader's validation is the
/// only one (an invalid upload throws the reader's ValidationError). `opt` drives the chunked
/// parallel parse (0 threads = JEDULE_THREADS / hardware); the entry is
/// bit-identical at any thread count.
EntryPtr parse_entry(std::string content, const std::string& name_hint = "",
                     const std::string& format = "",
                     const io::IngestOptions& opt = {});

/// Loads a schedule file into an entry — the one load path of every CLI
/// command and of Session; validated once, by the reader. `.jbin`
/// snapshots take the zero-copy route: the file is mmapped and admitted
/// as columns + prebuilt index with no parse and no AoS materialization.
/// Text formats memory-map the input and parse chunked per `opt`.
EntryPtr load_entry(const std::string& path, const std::string& format = "",
                    const io::IngestOptions& opt = {});

/// Appends live-trace events to an existing entry, producing a new entry
/// (entries are immutable; the new id reflects the new content hash).
/// O(delta) except for one flat column copy.
EntryPtr append_entry(const EntryPtr& base,
                      const std::vector<model::ScheduleArena::Event>& events);

/// Content-hash-addressed in-memory schedule store. put() deduplicates by
/// hash (re-uploading a trace is a cheap no-op returning the existing
/// entry); capacity overruns evict least-recently-used entries. All
/// methods are thread-safe.
class ScheduleStore {
 public:
  struct Options {
    /// Entry-count ceiling; 0 disables the limit.
    std::size_t max_entries = 64;
    /// Total-task ceiling across entries (the store's real memory driver);
    /// 0 disables the limit. A single over-budget entry is still admitted
    /// (the alternative — refusing it — would make the limit a correctness
    /// knob instead of a memory knob).
    std::size_t max_tasks = 8000000;
  };

  struct PutResult {
    EntryPtr entry;           // the stored entry (the existing one on dedup)
    bool deduplicated = false;
  };

  struct Stats {
    std::size_t entries = 0;
    std::size_t tasks = 0;
    /// Resident bytes across entries, split by backing: bytes still
    /// served off snapshot mappings vs heap allocations (see
    /// ScheduleEntry::resident).
    std::size_t resident_mmap_bytes = 0;
    std::size_t resident_heap_bytes = 0;
    /// Bytes of memory-mapped *input files* across stored entries (the
    /// ingest-time mapping; freed once parsing finished, reported for
    /// observability of the mmap ingest path).
    std::size_t ingest_mapped_bytes = 0;
    std::uint64_t puts = 0;
    std::uint64_t dedup_hits = 0;
    std::uint64_t evictions = 0;
    std::uint64_t lookups = 0;
    std::uint64_t lookup_misses = 0;
  };

  ScheduleStore() = default;
  explicit ScheduleStore(Options opt) : opt_(opt) {}

  /// Admits `entry`, deduplicating against its content hash, then evicts
  /// LRU entries until the store is back under its limits.
  PutResult put(EntryPtr entry);

  /// Entry by id (hex content hash), or nullptr; a hit refreshes LRU.
  EntryPtr find(const std::string& id) const;

  /// Removes the entry; returns whether it existed.
  bool erase(const std::string& id);

  /// Every stored entry, most recently used first.
  std::vector<EntryPtr> list() const;

  Stats stats() const;

 private:
  void evict_over_budget_locked();

  Options opt_;
  mutable std::mutex mu_;
  // Keyed by entry id; the list orders ids most-recently-used first.
  mutable std::list<std::string> lru_;
  struct Slot {
    EntryPtr entry;
    std::list<std::string>::iterator lru;
  };
  mutable std::map<std::string, Slot> entries_;
  mutable Stats stats_;
  std::size_t tasks_ = 0;
};

}  // namespace jedule::engine
