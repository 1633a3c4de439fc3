#pragma once

// jedule::engine — the frontend-neutral core the CLI, the interactive view
// loop and `jedule serve` all sit on (DESIGN.md §4f). This header owns the
// schedule side: an ingested schedule becomes one immutable, shareable
// ScheduleEntry (validated schedule, plus a spatial index, an edge index
// and a content hash built on first use), and ScheduleStore keeps entries
// addressable by content hash so identical uploads deduplicate and every
// frontend views the same object.
//
// Ownership model: entries are immutable after construction and handed out
// as shared_ptr<const ScheduleEntry>. The store's LRU eviction only drops
// its own reference — a Session viewing the entry or a render in flight
// keeps it alive, so eviction can never invalidate an ongoing request.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "jedule/io/ingest.hpp"
#include "jedule/io/snapshot.hpp"
#include "jedule/model/arena.hpp"
#include "jedule/model/composite.hpp"
#include "jedule/model/edge_index.hpp"
#include "jedule/model/schedule.hpp"
#include "jedule/model/task_index.hpp"
#include "jedule/model/task_view.hpp"

namespace jedule::engine {

/// A part of an entry built once, on first use, under its own once-guard
/// (a long index build blocks no other part); concurrent first readers all
/// see the one result. Constructors install parts that cost nothing to
/// have with set(). The implicit conversion and the unary & exist for
/// perfbench/trace.cpp, which reads `entry.index` as a const TaskIndex&,
/// `&entry.edges` as a const EdgeIndex* and `entry->id` as a std::string.
template <typename T>
class Lazy {
 public:
  explicit Lazy(std::function<T()> build) : build_(std::move(build)) {}
  Lazy(const Lazy&) = delete;
  Lazy& operator=(const Lazy&) = delete;

  const T& get() const {
    std::call_once(once_, [this] {
      value_.emplace(build_());
      ++builds_;
      built_ = true;
    });
    return *value_;
  }
  /// Installs the value without running the build (before publication).
  void set(T value) {
    std::call_once(once_, [&] {
      value_.emplace(std::move(value));
      built_ = true;
    });
  }
  /// Whether the value exists; never builds it.
  bool built() const { return built_; }
  /// How many times the build ran (0 or 1; introspection for tests).
  int builds() const { return builds_; }

  operator const T&() const { return get(); }  // NOLINT: implicit by design
  const T* operator&() const { return &get(); }
  const T* operator->() const { return &get(); }
  const T& operator*() const { return get(); }

 private:
  std::function<T()> build_;
  mutable std::once_flag once_;
  mutable std::optional<T> value_;
  mutable std::atomic<bool> built_{false};
  mutable std::atomic<int> builds_{0};
};

/// One ingested schedule, validated once at ingest. Everything downstream
/// (layout culling, tile caching, artifact caching, dedup) keys off
/// `content_hash`; `id` is its 16-digit hex spelling and doubles as the
/// HTTP resource name.
///
/// An entry carries up to two representations of the task table: the AoS
/// model::Schedule (what text parsers produce) and the columnar
/// model::ScheduleArena (what snapshots and the live-append path produce).
/// Renders read whichever the entry has through tasks(); each form
/// materializes lazily from the other only for the consumers that need
/// it (schedule(): info, convert, profile, full-view composites; arena():
/// snapshots, appends). So a `.jbin` or appended entry renders windows
/// and tiles straight from its columns.
///
/// The index, the edge index and the hash are built on first use
/// (DESIGN.md §4f lists what triggers each), so a full-view render builds
/// none of them. The task table is hashed at most once: the id, the index
/// and the arena reuse whichever hash came first. A `.jbin` entry loads
/// all three; an append extends its base's indexes in O(delta) when the
/// base has built them and takes its hash from the arena.
struct ScheduleEntry {
  /// AoS ingest: adopts an already-validated schedule (parser output, or
  /// make_entry after its validate()). `ingest_in` records what the parse
  /// did (threads, chunks, gzip, mapped input); its thread count also
  /// drives the parallel TaskIndex build.
  ScheduleEntry(model::Schedule schedule_in, std::string source_in,
                io::IngestStats ingest_in = {});

  /// Snapshot ingest: adopts the loaded (possibly mmapped) columns and
  /// prebuilt index; runs the columnar semantic validation, never the
  /// AoS materialization.
  ScheduleEntry(io::Snapshot snapshot, std::string source_in);

  /// O(delta) append: flat-copies the base's columns, appends and
  /// validates only `events`, and extends the base's index and edge index
  /// when it has built them. Throws ValidationError (base unchanged) on
  /// invalid events.
  ScheduleEntry(const ScheduleEntry& base,
                const std::vector<model::ScheduleArena::Event>& events);

  Lazy<std::string> id{[this] { return build_id(); }};
  /// Identity of the entry's full content: the task-column hash folded
  /// with the dependency-edge hash when edges exist (equal to the task
  /// hash otherwise, so edge-free ids match pre-edge builds). Everything
  /// keyed off it — artifact caches, tile caches, ETags — invalidates
  /// when either tasks or edges change.
  Lazy<std::uint64_t> content_hash{[this] { return build_content_hash(); }};
  std::string source;  // originating path / upload name hint (may be empty)
  /// How this entry was ingested (io::IngestStats; default-empty for
  /// snapshot and append entries, which never ran a text parse).
  io::IngestStats ingest;
  Lazy<model::TaskIndex> index{[this] { return build_index(); }};
  /// Dependency-edge index; empty when the schedule carries no edges.
  Lazy<model::EdgeIndex> edges{[this] { return build_edges(); }};
  model::TimeRange full_range{0, 1};  // {0, 1} for an empty schedule

  std::size_t task_count() const { return task_count_; }

  /// FNV passes over the task table so far (introspection for tests).
  int task_hash_passes() const { return task_hash_passes_; }

  /// A read view of the form the entry already has (the AoS schedule when
  /// it exists, else the arena); never builds the other. Valid while the
  /// entry lives.
  model::TaskView tasks() const;

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
  /// The pre-count task hash if some part holds it. Requires lazy_mu_.
  std::optional<std::uint64_t> known_tasks_hash_locked() const;
  model::TaskIndex build_index() const;
  model::EdgeIndex build_edges() const;
  std::uint64_t build_content_hash() const;
  std::string build_id() const;

  std::size_t task_count_ = 0;
  // The running task hash before the count fold, shared by the id, the
  // index build and the arena conversion.
  Lazy<std::uint64_t> tasks_hash_{[this] { return build_tasks_hash(); }};
  std::uint64_t build_tasks_hash() const;
  mutable std::atomic<int> task_hash_passes_{0};

  mutable std::mutex lazy_mu_;
  mutable std::shared_ptr<const model::Schedule> schedule_;
  mutable std::shared_ptr<const model::ScheduleArena> arena_;
  mutable std::shared_ptr<const std::vector<model::Composite>> composites_;
  // AoS footprint estimate, computed by the first resident() that sees
  // the AoS form.
  mutable std::optional<std::size_t> aos_bytes_;
  // Append provenance: the base's composite list (when it was already
  // computed) and the first appended task index, so composites() can
  // extend instead of resynthesize.
  mutable std::shared_ptr<const std::vector<model::Composite>>
      base_composites_;
  std::size_t first_new_ = 0;
};

using EntryPtr = std::shared_ptr<const ScheduleEntry>;

/// Wraps an in-memory schedule: validates; indexes and hashes on use.
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
/// O(delta) except for one flat column copy (and the base's arena
/// conversion, the first time a text-loaded entry is appended to).
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
