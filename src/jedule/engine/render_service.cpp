#include "jedule/engine/render_service.hpp"

#include <cstring>
#include <utility>

#include "jedule/render/deflate.hpp"
#include "jedule/render/exporter.hpp"
#include "jedule/render/png.hpp"
#include "jedule/util/error.hpp"
#include "jedule/util/parallel.hpp"

namespace jedule::engine {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

struct Fnv {
  std::uint64_t h = kFnvOffset;

  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= kFnvPrime;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void i32(int v) { u64(static_cast<std::uint64_t>(static_cast<std::uint32_t>(v))); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  void color(const color::Color& c) {
    bytes(&c.r, 1);
    bytes(&c.g, 1);
    bytes(&c.b, 1);
    bytes(&c.a, 1);
  }
};

void hash_style(Fnv& f, const render::GanttStyle& s) {
  f.i32(s.width);
  f.i32(s.height);
  f.i32(static_cast<int>(s.view_mode));
  f.i32(s.show_composites << 0 | s.show_labels << 1 | s.show_grid << 2 |
        s.show_meta << 3 | s.hatch_composites << 4);
  f.i32(s.time_window.has_value());
  if (s.time_window) {
    f.f64(s.time_window->begin);
    f.f64(s.time_window->end);
  }
  f.u64(s.cluster_filter.size());
  for (int id : s.cluster_filter) f.i32(id);
  f.u64(s.type_filter.size());
  for (const auto& t : s.type_filter) f.str(t);
  f.str(s.highlight_key);
  f.str(s.highlight_value);
  f.color(s.highlight_bg);
  f.i32(s.time_ticks);
  f.i32(static_cast<int>(s.lod));
  f.i32(s.lod_density);
  f.i32(static_cast<int>(s.edges));
  f.i32(s.edge_density);
}

void hash_colormap(Fnv& f, const color::ColorMap& m) {
  f.str(m.name());
  f.u64(m.config().size());
  for (const auto& [k, v] : m.config()) {
    f.str(k);
    f.str(v);
  }
  f.u64(m.styles().size());
  for (const auto& [type, style] : m.styles()) {
    f.str(type);
    f.color(style.foreground);
    f.color(style.background);
  }
  f.u64(m.composite_rules().size());
  for (const auto& rule : m.composite_rules()) {
    f.u64(rule.members.size());
    for (const auto& member : rule.members) f.str(member);
    f.color(rule.style.foreground);
    f.color(rule.style.background);
  }
}

std::uint64_t colormap_epoch(const color::ColorMap& m) {
  Fnv f;
  hash_colormap(f, m);
  return f.h;
}

}  // namespace

RenderService::RenderService(Options opt) : opt_(opt), tiles_(opt.tile) {}

std::uint64_t RenderService::options_digest(
    const render::RenderOptions& options) {
  Fnv f;
  hash_style(f, options.style);
  hash_colormap(f, options.colormap);
  return f.h;
}

std::string RenderService::media_type_for(const std::string& format) {
  if (format == "png") return "image/png";
  if (format == "ppm") return "image/x-portable-pixmap";
  if (format == "svg") return "image/svg+xml";
  if (format == "svgz") return "image/svg+xml";  // served Content-Encoding: gzip
  if (format == "pdf") return "application/pdf";
  if (format == "ascii") return "text/plain; charset=utf-8";
  return "application/octet-stream";
}

RenderService::Artifact RenderService::render(const EntryPtr& entry,
                                              render::RenderOptions options,
                                              const std::string& format,
                                              Encoding encoding) {
  JED_ASSERT(entry != nullptr);
  render::ExporterRegistry::instance().resolve(format);  // throws if unknown
  if (options.threads <= 0) options.threads = opt_.threads;

  if (encoding == Encoding::gzip) {
    Fnv req;
    req.str("gzip+" + format);
    req.u64(options_digest(options));
    const Key key{entry->content_hash, req.h};
    return cached(key, media_type_for(format), Encoding::gzip, [&] {
      // The identity render goes through its own cache slot (make() runs
      // outside the lock, so the nested lookup cannot deadlock): the
      // uncompressed artifact renders once and the gzip stream of it is
      // stored once, no matter how many clients negotiate compression.
      const Artifact identity =
          render(entry, options, format, Encoding::identity);
      const auto z = render::gzip_compress(
          reinterpret_cast<const std::uint8_t*>(identity.bytes->data()),
          identity.bytes->size(), util::resolve_threads(options.threads));
      return Made{std::string(reinterpret_cast<const char*>(z.data()),
                              z.size()),
                  identity.bytes->size()};
    });
  }

  Fnv req;
  req.str(format);
  req.u64(options_digest(options));
  const Key key{entry->content_hash, req.h};
  return cached(key, media_type_for(format), Encoding::identity, [&] {
    std::string bytes = render_bytes(entry, options, format);
    const std::size_t raw = bytes.size();
    return Made{std::move(bytes), raw};
  });
}

std::string RenderService::render_bytes(const EntryPtr& entry,
                                        render::RenderOptions options,
                                        const std::string& format) {
  JED_ASSERT(entry != nullptr);
  const render::Exporter& exporter =
      render::ExporterRegistry::instance().resolve(format);
  if (options.threads <= 0) options.threads = opt_.threads;
  // A windowed or LOD view culls through the entry's index and edge index
  // (O(visible) instead of O(n)); a full view reads every task and edge
  // anyway (its edges in one O(m) pass), so it builds neither, but uses
  // an edge index the entry already holds. The entry's cached composite
  // list replaces the per-render overlap sweep; a columnar entry sweeps
  // it from its columns. Bytes are identical with or without any of
  // them, and from either resident form, so all stay out of the cache
  // key. No render builds the AoS form of a columnar entry.
  options.task_index = nullptr;
  options.edge_index = entry->edges.built() ? &entry->edges : nullptr;
  if (options.style.time_window ||
      (options.style.lod != render::LodMode::kDefault &&
       options.style.lod != render::LodMode::kOff)) {
    options.task_index = &entry->index;
    options.edge_index = &entry->edges;
  }
  options.assume_validated = true;  // entries validate at ingest
  const model::TaskView tasks = entry->tasks();
  if (tasks.dep_count() > 0 &&
      options.style.edges != render::EdgeMode::kOff) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.edge_renders;
  }
  // A forced-LOD layout draws no exact boxes, so needs no composites.
  std::shared_ptr<const std::vector<model::Composite>> composites;
  if (options.style.show_composites && options.style.type_filter.empty() &&
      !options.style.time_window &&
      options.style.lod != render::LodMode::kForce) {
    composites = entry->composites(util::resolve_threads(options.threads));
    options.composites = composites.get();
  }
  return exporter.render(tasks, options);
}

RenderService::Artifact RenderService::render_tile(
    const EntryPtr& entry, long long x, long long y, int zoom,
    render::RenderOptions options) {
  JED_ASSERT(entry != nullptr);
  if (zoom < 0 || zoom > 30) {
    throw ArgumentError("zoom must be in [0, 30] (got " +
                        std::to_string(zoom) + ")");
  }
  const long long tiles = 1ll << zoom;
  if (x < 0 || x >= tiles) {
    throw ArgumentError("tile x must be in [0, 2^zoom) (got " +
                        std::to_string(x) + " at zoom " +
                        std::to_string(zoom) + ")");
  }
  // The cluster table of the resident form: a cached tile of a columnar
  // entry must not materialize the AoS form just for this bounds check.
  const model::TaskView tasks = entry->tasks();
  const auto& clusters = tasks.clusters();
  if (y >= static_cast<long long>(clusters.size())) {
    throw ArgumentError("tile y must be a cluster row in [0, " +
                        std::to_string(clusters.size()) + ") or omitted");
  }
  if (options.threads <= 0) options.threads = opt_.threads;

  const model::TimeRange full = entry->full_range;
  const double step = full.length() / static_cast<double>(tiles);
  options.style.time_window = model::TimeRange{
      full.begin + step * static_cast<double>(x),
      x + 1 == tiles ? full.end : full.begin + step * static_cast<double>(x + 1)};
  if (y >= 0) {
    options.style.cluster_filter = {clusters[static_cast<std::size_t>(y)].id};
  }

  Fnv req;
  req.str("tile.png");
  req.u64(options_digest(options));
  const Key key{entry->content_hash, req.h};
  return cached(key, media_type_for("png"), Encoding::identity, [&] {
    render::TileCache::Request tile_req;
    tile_req.tasks = tasks;
    tile_req.colormap = &options.colormap;
    tile_req.style = options.style;
    tile_req.index = &entry->index;
    tile_req.edge_index = &entry->edges;
    tile_req.colormap_epoch = colormap_epoch(options.colormap);
    std::lock_guard<std::mutex> lock(tile_mu_);
    const render::Framebuffer fb = tiles_.render_frame(tile_req);
    const auto& frame = tiles_.last_frame();
    if (frame.edges_considered > 0 || frame.edge_heat_panels > 0) {
      std::lock_guard<std::mutex> stats_lock(mu_);
      ++stats_.edge_renders;
      stats_.edge_arrows += frame.edge_arrows;
      stats_.edge_heat_frames += frame.edge_heat_panels > 0 ? 1 : 0;
    }
    std::string bytes =
        render::encode_png(fb, util::resolve_threads(options.threads));
    const std::size_t raw = bytes.size();
    return Made{std::move(bytes), raw};
  });
}

RenderService::Artifact RenderService::cached(
    const Key& key, const std::string& media_type, Encoding encoding,
    const std::function<Made()>& make) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      auto it = cache_.find(key);
      if (it == cache_.end()) break;  // we render it
      if (it->second.bytes != nullptr) {
        ++stats_.artifact_hits;
        lru_.splice(lru_.begin(), lru_, it->second.lru);
        return {it->second.bytes, it->second.media_type, true,
                it->second.raw_size, encoding};
      }
      // Another thread is rendering this key: wait for it instead of
      // duplicating the work (single-flight). If the renderer fails, its
      // slot disappears and the loop retries — possibly becoming the
      // renderer itself.
      slot_ready_.wait(lock);
    }
    ++stats_.artifact_misses;
    cache_.emplace(key, Slot{nullptr, media_type, 0, lru_.end()});
  }

  std::shared_ptr<const std::string> bytes;
  std::size_t raw_size = 0;
  try {
    Made made = make();
    raw_size = made.raw_size;
    bytes = std::make_shared<const std::string>(std::move(made.bytes));
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      cache_.erase(key);
    }
    slot_ready_.notify_all();
    throw;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(key);
    JED_ASSERT(it != cache_.end() && it->second.bytes == nullptr);
    it->second.bytes = bytes;
    it->second.raw_size = raw_size;
    lru_.push_front(key);
    it->second.lru = lru_.begin();
    cached_bytes_ += bytes->size();
    evict_over_budget_locked();
  }
  slot_ready_.notify_all();
  return {std::move(bytes), media_type, false, raw_size, encoding};
}

void RenderService::evict_over_budget_locked() {
  auto over = [this] {
    return (opt_.artifact_entries != 0 && lru_.size() > opt_.artifact_entries) ||
           (opt_.artifact_bytes != 0 && cached_bytes_ > opt_.artifact_bytes);
  };
  // Only completed slots live in lru_, so pending renders are never
  // evicted; the newest artifact always survives its own insertion.
  while (lru_.size() > 1 && over()) {
    const Key victim = lru_.back();
    auto it = cache_.find(victim);
    JED_ASSERT(it != cache_.end() && it->second.bytes != nullptr);
    cached_bytes_ -= it->second.bytes->size();
    cache_.erase(it);
    lru_.pop_back();
    ++stats_.artifact_evictions;
  }
}

RenderService::Stats RenderService::stats() const {
  RenderService::Stats s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s = stats_;
    s.artifact_entries = lru_.size();
    s.artifact_bytes = cached_bytes_;
  }
  {
    std::lock_guard<std::mutex> lock(tile_mu_);
    s.tile = tiles_.stats();
  }
  return s;
}

}  // namespace jedule::engine
