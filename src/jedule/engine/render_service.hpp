#pragma once

// engine::RenderService — the render side of the engine layer: one object
// through which every frontend (CLI, interactive loop, `jedule serve`)
// turns a ScheduleEntry into bytes, so expensive results are shared.
//
// Two caches stack:
//  * an LRU rendered-artifact cache keyed by (content hash x exporter
//    format x RenderOptions digest). Concurrent requests for the same key
//    are collapsed single-flight: the first renders, the rest block and
//    are served the same immutable byte buffer (counted as hits), so two
//    clients asking for one PNG cost one render and get byte-identical
//    bodies.
//  * the shared render::TileCache (PR 3) behind the windowed tile path,
//    so walking adjacent tiles at one zoom level re-rasterizes only newly
//    exposed strips, exactly like an interactive pan.
//
// Artifacts are handed out as shared_ptr<const string>: eviction drops the
// cache's reference while responses still being written keep theirs.

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "jedule/engine/store.hpp"
#include "jedule/render/frame_profile.hpp"
#include "jedule/render/options.hpp"
#include "jedule/render/tile_cache.hpp"

namespace jedule::engine {

class RenderService {
 public:
  struct Options {
    std::size_t artifact_entries = 128;       // LRU ceiling, count
    std::size_t artifact_bytes = 128u << 20;  // LRU ceiling, payload bytes
    int threads = 0;  // default per-render workers (<=0: resolve_threads)
    render::TileCache::Options tile{.threads = 0};  // the shared tile cache
  };

  /// Transfer encoding of an artifact's bytes. `gzip` artifacts hold the
  /// gzip-compressed identity render; both representations are cached
  /// under separate keys, so the compressed bytes are produced once and
  /// repeated negotiated requests are pure cache hits.
  enum class Encoding { identity, gzip };

  struct Artifact {
    std::shared_ptr<const std::string> bytes;
    std::string media_type;
    bool cache_hit = false;
    /// Size of the identity (uncompressed) representation; equals
    /// bytes->size() for identity artifacts.
    std::size_t raw_size = 0;
    Encoding encoding = Encoding::identity;
  };

  struct Stats {
    std::uint64_t artifact_hits = 0;
    std::uint64_t artifact_misses = 0;
    std::uint64_t artifact_evictions = 0;
    std::size_t artifact_entries = 0;
    std::size_t artifact_bytes = 0;
    /// Counters of the shared tile cache (render::frame_profile).
    render::profile::CacheStats tile;
    /// Dependency-edge rendering: artifact renders with edges active,
    /// and how the tile path drew them (arrows vs heat lanes).
    std::uint64_t edge_renders = 0;
    std::uint64_t edge_arrows = 0;
    std::uint64_t edge_heat_frames = 0;
  };

  RenderService() : RenderService(Options{}) {}
  explicit RenderService(Options opt);

  /// Renders `entry` with the exporter named `format` ("png", "svg", ...),
  /// through the artifact cache: cached(key, render_bytes). The key is the
  /// entry's content hash, so the first render() of an entry hashes it.
  /// options.threads <= 0 falls back to the service default. Throws
  /// ArgumentError for an unknown format.
  ///
  /// With Encoding::gzip the returned bytes are the gzip stream of the
  /// identity render (for HTTP Content-Encoding negotiation); both the
  /// identity and the compressed bytes are cached, each once.
  Artifact render(const EntryPtr& entry, render::RenderOptions options,
                  const std::string& format,
                  Encoding encoding = Encoding::identity);

  /// The uncached body of render(): the identity bytes, computed every
  /// call. It needs no cache key, so a one-shot caller (`jedule render`,
  /// `jedule batch`) never hashes the entry. options.task_index and
  /// options.edge_index are ignored: a windowed or LOD view uses the
  /// entry's own indexes, a full view only an edge index the entry
  /// already built.
  std::string render_bytes(const EntryPtr& entry,
                           render::RenderOptions options,
                           const std::string& format);

  /// Windowed viewport tile as PNG: zoom z splits the schedule's time
  /// range into 2^z equal slices and `x` picks one; `y` >= 0 restricts the
  /// view to the y-th cluster (in schedule order), y < 0 shows all.
  /// Cold tiles rasterize through the shared TileCache; repeats are
  /// artifact-cache hits. Throws ArgumentError on out-of-range x/y/zoom.
  Artifact render_tile(const EntryPtr& entry, long long x, long long y,
                       int zoom, render::RenderOptions options);

  Stats stats() const;

  /// FNV-1a digest over everything in `options` that can change rendered
  /// bytes (style fields and the full colormap; threads excluded — output
  /// is thread-count-invariant by design).
  static std::uint64_t options_digest(const render::RenderOptions& options);

  /// Media type for a registered exporter format ("png" -> "image/png");
  /// "application/octet-stream" for unknown names.
  static std::string media_type_for(const std::string& format);

 private:
  struct Key {
    std::uint64_t content = 0;
    std::uint64_t request = 0;  // format x options digest
    auto operator<=>(const Key&) const = default;
  };
  struct Slot {
    std::shared_ptr<const std::string> bytes;  // null while rendering
    std::string media_type;
    std::size_t raw_size = 0;
    std::list<Key>::iterator lru;
  };
  /// What a cache-miss producer returns: the artifact bytes plus the size
  /// of the identity representation they encode.
  struct Made {
    std::string bytes;
    std::size_t raw_size = 0;
  };

  /// Cache lookup + single-flight render of `make()` under `key`.
  Artifact cached(const Key& key, const std::string& media_type,
                  Encoding encoding, const std::function<Made()>& make);
  void evict_over_budget_locked();

  Options opt_;

  mutable std::mutex mu_;
  std::condition_variable slot_ready_;
  std::map<Key, Slot> cache_;
  std::list<Key> lru_;  // front = most recently used; pending slots absent
  std::size_t cached_bytes_ = 0;
  Stats stats_;

  mutable std::mutex tile_mu_;  // the TileCache itself is single-threaded
  render::TileCache tiles_;
};

}  // namespace jedule::engine
