#pragma once

// io::ingest — shared machinery of the parallel chunked ingest pipeline
// (DESIGN.md §4i). The format readers split their input at safe record
// boundaries (element boundaries for XML, newlines for CSV/SWF), parse the
// chunks on worker threads, and merge in submission order, so the result
// is bit-identical to the serial parse at any thread count. This header
// owns the three pieces every format shares:
//
//   * TextSource — the input text, with transparent *pipelined* gzip: a
//     producer thread inflates into a pre-sized buffer and publishes a
//     growing prefix, so scanning/parsing overlap with decompression,
//   * submit_line_chunks — the newline chunk cutter of CSV and SWF,
//     feeding a util::TaskGroup (lowest-submission-index errors),
//   * IngestOptions / IngestStats / per-format counters — the knobs and
//     the observability surface (serve /stats, CLI --ingest-stats).

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "jedule/model/schedule.hpp"
#include "jedule/util/parallel.hpp"

namespace jedule::io {

struct IngestOptions {
  /// Worker threads for the chunked parse. <= 0 resolves like every other
  /// parallel stage (JEDULE_THREADS env, else hardware concurrency); 1
  /// forces the serial path. The output is identical either way.
  int threads = 0;
  /// Inputs below this stay serial: the chunk bookkeeping would cost more
  /// than it saves.
  std::size_t min_parallel_bytes = 1u << 20;
  /// Deterministic batch-cutting threshold: a worker chunk closes once it
  /// holds this many bytes. A pure function of the input (never of worker
  /// availability), so chunk boundaries do not depend on timing.
  std::size_t target_chunk_bytes = 2u << 20;
};

/// What one ingest actually did; filled by parse_schedule/load_schedule
/// and surfaced via --ingest-stats and the /stats "ingest" section.
struct IngestStats {
  std::string format;          // parser name ("jedule-xml", "csv", ...)
  std::size_t bytes = 0;       // decoded input bytes parsed
  std::size_t chunks = 0;      // worker chunks (0 on the serial path)
  int threads = 1;             // resolved worker thread count
  bool parallel = false;       // the chunked path produced the result
  bool gzip = false;           // input was a gzip member
  bool mapped_input = false;   // input served from a memory mapping
  std::size_t mapped_bytes = 0;  // bytes of that mapping
  double parse_ms = 0.0;       // wall time inside parse_schedule
};

/// Cumulative per-format counters (process-wide, thread-safe).
struct IngestCounters {
  std::uint64_t parses = 0;
  std::uint64_t parallel_parses = 0;
  std::uint64_t bytes = 0;
  std::uint64_t chunks = 0;
  double parse_ms = 0.0;
  int last_threads = 0;
};
void record_ingest(const IngestStats& stats);
std::map<std::string, IngestCounters> ingest_counters();

/// One-line human summary ("xml 12.3 MB in 140 ms (87.9 MB/s, 8 threads,
/// 6 chunks)") for the CLI --ingest-stats flag.
std::string ingest_summary(const IngestStats& stats);

/// The text being ingested. Non-gzip inputs are complete immediately; a
/// gzip input (RFC 1952 magic) starts a producer thread that inflates into
/// a buffer sized from the ISIZE trailer hint and *never reallocated*, so
/// views into the published prefix stay valid while decompression runs.
/// When the hint lied (output exceeds the bounded capacity), the source
/// falls back to the eager decoder on the consumer thread; the original
/// buffer is kept alive, so earlier views survive the switch.
///
/// Single consumer: one thread calls wait_for()/all(). Producer errors
/// (corrupt gzip) are rethrown from wait_for() with exactly the serial
/// util::gzip_decompress messages.
class TextSource {
 public:
  struct View {
    const char* data = nullptr;
    std::size_t size = 0;  // decoded bytes available (monotonic)
    bool complete = false;  // size is the final text size
    std::string_view text() const { return {data, size}; }
  };

  /// Externally owned bytes; `keepalive` (may be null if the caller
  /// guarantees the lifetime) keeps them alive for the source's lifetime.
  TextSource(std::string_view raw, std::shared_ptr<const void> keepalive);
  /// Adopts the bytes.
  explicit TextSource(std::string raw);
  ~TextSource();
  TextSource(const TextSource&) = delete;
  TextSource& operator=(const TextSource&) = delete;

  bool gzip() const { return gzip_; }
  std::size_t raw_size() const { return raw_.size(); }

  /// Blocks until at least `target` decoded bytes are available or the
  /// text is complete. The data pointer may change between calls (the
  /// overflow fallback switches buffers), so always re-slice from the
  /// latest View; previously taken string_views remain valid.
  View wait_for(std::size_t target);

  /// The complete text (blocks until decompression finishes).
  std::string_view all();

 private:
  void start_producer();
  void run_eager_fallback();  // consumer thread, after bounded overflow

  std::string owned_;                     // when constructed from a string
  std::shared_ptr<const void> keepalive_;
  std::string_view raw_;
  bool gzip_ = false;

  // Gzip pipeline state (untouched for plain inputs).
  std::unique_ptr<std::uint8_t[]> buf_;
  std::size_t capacity_ = 0;
  std::vector<std::uint8_t> fallback_;
  bool use_fallback_ = false;
  std::thread producer_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t published_ = 0;
  bool done_ = false;
  bool overflow_ = false;
  std::exception_ptr error_;
};

/// Incremental newline finder over a TextSource — the boundary scanner of
/// the line-oriented formats (CSV, SWF). It tracks the latest published
/// View and grows it on demand, so scanning a gzip input overlaps with
/// decompression. Offsets are stable across refreshes (the decoded text
/// never changes, only how much of it is visible); slices taken from the
/// current view stay valid even if a later refresh switches buffers.
class LineScanner {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  explicit LineScanner(TextSource& src);

  /// Offset of the first '\n' at or after `from`, or npos once the
  /// complete text is known to hold none. Blocks for more decoded bytes
  /// as needed; on npos return the view covers the whole text.
  std::size_t find_newline(std::size_t from);

  /// Grows the view to at least `target` bytes (or the complete text).
  void ensure(std::size_t target);

  std::string_view slice(std::size_t begin, std::size_t end) const {
    return view_.substr(begin, end - begin);
  }
  std::size_t size() const { return view_.size(); }
  bool complete() const { return complete_; }

 private:
  void refresh(std::size_t target);

  TextSource* src_;
  std::string_view view_;
  bool complete_ = false;
};

/// Chunk-local memo over the global task-type intern pool: worker threads
/// resolve each distinct type string once per chunk instead of taking the
/// pool's shared lock per task. Keys are views into the pooled strings
/// themselves (node-stable for the process lifetime). The pointers are the
/// same ones the serial readers intern, so schedules built through the
/// cache stay byte-identical to serial parses.
struct TypeInternCache {
  std::unordered_map<std::string_view, const std::string*> map;
  const std::string* intern(std::string_view type) {
    if (const auto it = map.find(type); it != map.end()) return it->second;
    const std::string* pooled = model::detail::intern_task_type(type);
    map.emplace(std::string_view(*pooled), pooled);
    return pooled;
  }
};

/// Whether a chunked reader parses serially: at one thread, or a plain
/// input under `min_parallel_bytes` (a gzip input's size is not known yet).
bool parse_serially(TextSource& src, const IngestOptions& opt);

/// The chunk cutter of CSV and SWF: from `begin` (npos: nothing) to the end
/// of the text, each chunk closes at the first newline at or after
/// `target_chunk_bytes`, a pure function of the text. Submits
/// `job_for(chunk)` to `group` per chunk, in text order, while scanning on.
void submit_line_chunks(
    LineScanner& scan, std::size_t begin, std::size_t target_chunk_bytes,
    util::TaskGroup& group,
    const std::function<std::function<void()>(std::string_view)>& job_for);

}  // namespace jedule::io
