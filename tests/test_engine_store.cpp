// engine layer: content-hash-addressed ScheduleStore (dedup, LRU
// eviction, thread-safe handout of immutable entries) and RenderService
// (artifact cache keyed by content x options, single-flight collapse of
// concurrent identical renders, windowed tiles). The concurrency cases
// run under the tsan ctest configuration.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <latch>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include <filesystem>

#include "jedule/engine/events.hpp"
#include "jedule/engine/options.hpp"
#include "jedule/engine/render_service.hpp"
#include "jedule/engine/session_state.hpp"
#include "jedule/engine/store.hpp"
#include "jedule/io/csv.hpp"
#include "jedule/io/jedule_xml.hpp"
#include "jedule/io/snapshot.hpp"
#include "jedule/util/inflate.hpp"
#include "jedule/model/builder.hpp"
#include "jedule/render/deflate.hpp"
#include "jedule/render/exporter.hpp"
#include "jedule/util/checksum.hpp"
#include "jedule/util/error.hpp"

namespace jedule::engine {
namespace {

model::Schedule sample_schedule(int tasks = 8, double shift = 0.0) {
  model::ScheduleBuilder builder;
  builder.cluster(0, "c0", 8).cluster(1, "c1", 4);
  for (int i = 0; i < tasks; ++i) {
    const double start = shift + i;
    builder
        .task(std::to_string(i), i % 2 ? "computation" : "transfer", start,
              start + 1.5)
        .on(i % 2, i % 3, 2);
  }
  return builder.build();
}

render::RenderOptions small_options() {
  render::RenderOptions options;
  options.style.width = 200;
  options.style.height = 120;
  options.style.show_labels = false;
  options.threads = 1;
  return options;
}

TEST(ScheduleEntry, HashedValidatedAndIndexed) {
  const EntryPtr entry = make_entry(sample_schedule(), "mem");
  EXPECT_EQ(*entry->content_hash, entry->index->content_hash());
  EXPECT_EQ(entry->id->size(), 16u);
  EXPECT_EQ(entry->id->find_first_not_of("0123456789abcdef"),
            std::string::npos);
  EXPECT_EQ(entry->source, "mem");
  EXPECT_DOUBLE_EQ(entry->full_range.begin, 0.0);

  // Identical content hashes identically regardless of the source label;
  // different content does not.
  EXPECT_EQ(*make_entry(sample_schedule(), "other")->id, *entry->id);
  EXPECT_NE(*make_entry(sample_schedule(8, 1.0), "mem")->id, *entry->id);
}

TEST(ScheduleEntry, InvalidScheduleRejected) {
  model::Schedule bad;
  bad.add_cluster(0, "c", 2);
  model::Task t("x", "job", 0, 1);
  t.allocate(0, 5, 4);  // hosts 5..8 on a 2-host cluster
  bad.add_task(std::move(t));
  EXPECT_THROW(make_entry(std::move(bad)), ValidationError);
}

TEST(ScheduleEntry, ParseEntryRejectsInvalidUploadInTheReader) {
  // The same out-of-range allocation as above, as CSV bytes: the entry no
  // longer re-validates parser output, so the reader's own validation is
  // what rejects it.
  const std::string csv =
      "!cluster,0,c,2\n"
      "task_id,type,start,end,allocs\n"
      "x,job,0,1,0:5-8\n";
  EXPECT_THROW(parse_entry(csv, "bad.csv"), ValidationError);
  EXPECT_THROW(parse_entry(csv, "", "csv"), ValidationError);
}

TEST(ScheduleEntry, ParseEntrySniffsGzip) {
  const std::string xml = io::write_schedule_xml(sample_schedule());
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(xml.data());
  // Minimal RFC 1952 member around our own deflate stream.
  std::string gz = {'\x1f', '\x8b', 8, 0, 0, 0, 0, 0, 0, '\xff'};
  const auto body = render::deflate_compress(bytes, xml.size());
  gz.append(body.begin(), body.end());
  for (std::uint32_t v : {util::crc32(bytes, xml.size()),
                          static_cast<std::uint32_t>(xml.size())}) {
    for (int i = 0; i < 4; ++i) {
      gz.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }

  const EntryPtr plain = parse_entry(xml, "trace.jed");
  const EntryPtr zipped = parse_entry(gz, "trace.jed.gz");
  EXPECT_EQ(*plain->id, *zipped->id);
  EXPECT_EQ(zipped->schedule().tasks().size(), 8u);
}

TEST(ScheduleStore, DeduplicatesByContentHash) {
  ScheduleStore store;
  const auto first = store.put(make_entry(sample_schedule(), "a"));
  EXPECT_FALSE(first.deduplicated);
  const auto again = store.put(make_entry(sample_schedule(), "b"));
  EXPECT_TRUE(again.deduplicated);
  // The original entry object is handed back, not the re-upload.
  EXPECT_EQ(again.entry.get(), first.entry.get());
  EXPECT_EQ(again.entry->source, "a");

  const auto stats = store.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.puts, 2u);
  EXPECT_EQ(stats.dedup_hits, 1u);
}

TEST(ScheduleStore, FindEraseList) {
  ScheduleStore store;
  const auto put = store.put(make_entry(sample_schedule(), "a"));
  EXPECT_EQ(store.find(put.entry->id).get(), put.entry.get());
  EXPECT_EQ(store.find("0000000000000000"), nullptr);
  EXPECT_EQ(store.list().size(), 1u);
  EXPECT_TRUE(store.erase(put.entry->id));
  EXPECT_FALSE(store.erase(put.entry->id));
  EXPECT_EQ(store.list().size(), 0u);
  EXPECT_EQ(store.stats().lookup_misses, 1u);
}

TEST(ScheduleStore, EvictsLeastRecentlyUsed) {
  ScheduleStore::Options opt;
  opt.max_entries = 2;
  ScheduleStore store(opt);
  const auto a = store.put(make_entry(sample_schedule(4, 0), "a")).entry;
  const auto b = store.put(make_entry(sample_schedule(4, 100), "b")).entry;
  // Touch a so b becomes the LRU victim.
  ASSERT_NE(store.find(a->id), nullptr);
  const auto c = store.put(make_entry(sample_schedule(4, 200), "c")).entry;

  EXPECT_EQ(store.find(b->id), nullptr);
  EXPECT_NE(store.find(a->id), nullptr);
  EXPECT_NE(store.find(c->id), nullptr);
  EXPECT_EQ(store.stats().evictions, 1u);
  // The evicted entry stays usable through outstanding references.
  EXPECT_EQ(b->schedule().tasks().size(), 4u);
}

TEST(ScheduleStore, TaskBudgetEvictsButAdmitsOversizedEntry) {
  ScheduleStore::Options opt;
  opt.max_tasks = 10;
  ScheduleStore store(opt);
  store.put(make_entry(sample_schedule(8, 0), "a"));
  store.put(make_entry(sample_schedule(8, 100), "b"));  // 16 > 10: evict a
  EXPECT_EQ(store.stats().entries, 1u);
  EXPECT_EQ(store.stats().tasks, 8u);

  ScheduleStore store2(opt);
  const auto big = store2.put(make_entry(sample_schedule(50, 0), "big"));
  // A single over-budget entry is still admitted.
  EXPECT_EQ(store2.stats().entries, 1u);
  EXPECT_EQ(big.entry->schedule().tasks().size(), 50u);
}

TEST(RenderService, CachesByContentAndOptions) {
  RenderService service;
  const EntryPtr entry = make_entry(sample_schedule());

  const auto first = service.render(entry, small_options(), "png");
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.media_type, "image/png");
  const auto second = service.render(entry, small_options(), "png");
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(*first.bytes, *second.bytes);

  // A different format or option digest is a different artifact.
  EXPECT_FALSE(service.render(entry, small_options(), "svg").cache_hit);
  auto wider = small_options();
  wider.style.width = 300;
  EXPECT_FALSE(service.render(entry, wider, "png").cache_hit);

  const auto stats = service.stats();
  EXPECT_EQ(stats.artifact_hits, 1u);
  EXPECT_EQ(stats.artifact_misses, 3u);
  EXPECT_EQ(stats.artifact_entries, 3u);
  EXPECT_GT(stats.artifact_bytes, 0u);

  EXPECT_THROW(service.render(entry, small_options(), "jpeg"), ArgumentError);
}

TEST(RenderService, ThreadCountStaysOutOfTheCacheKey) {
  RenderService service;
  const EntryPtr entry = make_entry(sample_schedule());
  auto options = small_options();
  options.threads = 1;
  const auto serial = service.render(entry, options, "png");
  options.threads = 4;
  const auto parallel = service.render(entry, options, "png");
  EXPECT_TRUE(parallel.cache_hit);  // same digest: renders are byte-identical
  EXPECT_EQ(*serial.bytes, *parallel.bytes);
}

TEST(RenderService, GzipEncodingCachesCompressedBytesOnce) {
  RenderService service;
  const EntryPtr entry = make_entry(sample_schedule());

  const auto packed = service.render(entry, small_options(), "svg",
                                     RenderService::Encoding::gzip);
  EXPECT_FALSE(packed.cache_hit);
  EXPECT_EQ(packed.encoding, RenderService::Encoding::gzip);
  EXPECT_EQ(packed.media_type, "image/svg+xml");

  // The identity render was produced (and cached) on the way: fetching it
  // is a hit, its bytes are the decompressed gzip body, and raw_size on
  // the compressed artifact reports the identity size.
  const auto identity = service.render(entry, small_options(), "svg");
  EXPECT_TRUE(identity.cache_hit);
  EXPECT_EQ(identity.raw_size, identity.bytes->size());
  EXPECT_EQ(packed.raw_size, identity.bytes->size());
  EXPECT_LT(packed.bytes->size(), identity.bytes->size());
  const auto raw = util::gzip_decompress(
      reinterpret_cast<const std::uint8_t*>(packed.bytes->data()),
      packed.bytes->size());
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(raw.data()),
                        raw.size()),
            *identity.bytes);

  // Repeat negotiated requests never recompress.
  const auto again = service.render(entry, small_options(), "svg",
                                    RenderService::Encoding::gzip);
  EXPECT_TRUE(again.cache_hit);
  EXPECT_EQ(*again.bytes, *packed.bytes);
  const auto stats = service.stats();
  EXPECT_EQ(stats.artifact_misses, 2u);  // identity + gzip, each once
  EXPECT_EQ(stats.artifact_hits, 2u);
}

TEST(RenderService, EvictsArtifactsOverBudget) {
  RenderService::Options opt;
  opt.artifact_entries = 2;
  RenderService service(opt);
  const EntryPtr entry = make_entry(sample_schedule());
  auto options = small_options();
  for (int w = 160; w < 165; ++w) {
    options.style.width = w;
    service.render(entry, options, "ppm");
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.artifact_entries, 2u);
  EXPECT_EQ(stats.artifact_evictions, 3u);
}

TEST(RenderService, TilesSliceTheTimeAxis) {
  RenderService service;
  const EntryPtr entry = make_entry(sample_schedule());

  const auto whole = service.render_tile(entry, 0, -1, 0, small_options());
  EXPECT_FALSE(whole.cache_hit);
  EXPECT_EQ(whole.media_type, "image/png");
  EXPECT_GT(whole.bytes->size(), 0u);
  EXPECT_TRUE(service.render_tile(entry, 0, -1, 0, small_options()).cache_hit);

  // Adjacent tiles at one zoom level are distinct artifacts...
  const auto left = service.render_tile(entry, 0, -1, 2, small_options());
  const auto right = service.render_tile(entry, 1, -1, 2, small_options());
  EXPECT_FALSE(left.cache_hit);
  EXPECT_FALSE(right.cache_hit);
  EXPECT_NE(*left.bytes, *right.bytes);
  // ...and a per-cluster row differs from the all-clusters tile.
  const auto row = service.render_tile(entry, 0, 1, 2, small_options());
  EXPECT_NE(*row.bytes, *left.bytes);

  EXPECT_THROW(service.render_tile(entry, 0, -1, 31, small_options()),
               ArgumentError);
  EXPECT_THROW(service.render_tile(entry, 4, -1, 2, small_options()),
               ArgumentError);
  EXPECT_THROW(service.render_tile(entry, 0, 99, 2, small_options()),
               ArgumentError);
}

TEST(RenderService, ConcurrentIdenticalRendersCollapseSingleFlight) {
  RenderService service;
  const EntryPtr entry = make_entry(sample_schedule(64));
  constexpr int kClients = 8;

  std::vector<std::string> bodies(kClients);
  std::atomic<int> hits{0};
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back([&, i] {
        const auto artifact = service.render(entry, small_options(), "png");
        bodies[static_cast<std::size_t>(i)] = *artifact.bytes;
        if (artifact.cache_hit) hits.fetch_add(1);
      });
    }
    for (auto& t : clients) t.join();
  }

  for (int i = 1; i < kClients; ++i) {
    EXPECT_EQ(bodies[static_cast<std::size_t>(i)], bodies[0]);
  }
  // Exactly one client rendered; everyone else was served from the cache.
  EXPECT_EQ(hits.load(), kClients - 1);
  const auto stats = service.stats();
  EXPECT_EQ(stats.artifact_misses, 1u);
  EXPECT_EQ(stats.artifact_hits, static_cast<std::uint64_t>(kClients - 1));
}

TEST(RenderService, ConcurrentUploadAndRenderAcrossEntries) {
  // Threads race puts, lookups and renders on a shared store + service;
  // byte-identity per schedule must survive the interleaving.
  ScheduleStore store;
  RenderService service;
  constexpr int kSchedules = 4;
  constexpr int kThreads = 8;

  std::vector<std::string> reference(kSchedules);
  for (int s = 0; s < kSchedules; ++s) {
    const EntryPtr entry = make_entry(sample_schedule(16, 10.0 * s));
    reference[static_cast<std::size_t>(s)] =
        *service.render(entry, small_options(), "ppm").bytes;
  }

  std::atomic<int> mismatches{0};
  {
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int w = 0; w < kThreads; ++w) {
      workers.emplace_back([&, w] {
        for (int round = 0; round < 6; ++round) {
          const int s = (w + round) % kSchedules;
          const auto put =
              store.put(make_entry(sample_schedule(16, 10.0 * s)));
          const auto artifact =
              service.render(put.entry, small_options(), "ppm");
          if (*artifact.bytes != reference[static_cast<std::size_t>(s)]) {
            mismatches.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : workers) t.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(store.stats().entries, static_cast<std::size_t>(kSchedules));
  EXPECT_GE(store.stats().dedup_hits, 1u);
}

TEST(ScheduleEntry, AppendedEntryMatchesFreshIngestOnEveryExporter) {
  // The acceptance bar for O(delta) append: an entry grown via
  // append_entry must be indistinguishable — id, hashes, and every
  // exporter's bytes at any thread count — from a fresh ingest of the
  // same final schedule.
  const EntryPtr base = make_entry(sample_schedule(16), "base");
  const EntryPtr fresh = make_entry(sample_schedule(24), "fresh");
  // Force the base's composites so the grown entry takes the
  // append_composites extension path rather than a full resweep.
  base->composites();

  const auto events = events_from_tasks(fresh->schedule(), 16);
  ASSERT_EQ(events.size(), 8u);
  const EntryPtr grown = append_entry(base, events);

  EXPECT_EQ(*grown->id, *fresh->id);
  EXPECT_EQ(*grown->content_hash, *fresh->content_hash);
  EXPECT_EQ(grown->task_count(), fresh->task_count());
  EXPECT_EQ(io::write_schedule_xml(grown->schedule()),
            io::write_schedule_xml(fresh->schedule()));

  const auto names = render::ExporterRegistry::instance().exporter_names();
  ASSERT_GE(names.size(), 5u);
  for (const std::string& format : names) {
    for (int threads : {1, 4}) {
      auto render_with = [&](const EntryPtr& entry) {
        render::RenderOptions options = small_options();
        options.threads = threads;
        options.style.show_composites = true;
        options.task_index = &entry->index;
        options.assume_validated = true;
        const auto composites = entry->composites(threads);
        options.composites = composites.get();
        return render::render_to_bytes(entry->schedule(), options, format);
      };
      EXPECT_EQ(render_with(grown), render_with(fresh))
          << format << " threads=" << threads;
    }
  }
}

TEST(ScheduleEntry, SnapshotEntryStaysMappedUntilRendered) {
  const EntryPtr source = make_entry(sample_schedule(64), "mem");
  const std::string path =
      (std::filesystem::temp_directory_path() / "jedule_store_entry.jbin")
          .string();
  io::save_snapshot(source->arena(), source->index, path);

  const EntryPtr loaded = load_entry(path);
  EXPECT_EQ(*loaded->id, *source->id);
  EXPECT_EQ(*loaded->content_hash, *source->content_hash);
  EXPECT_EQ(loaded->task_count(), 64u);
  EXPECT_EQ(loaded->tasks().clusters().size(), 2u);

  // Before anything renders, the entry serves straight off the mapping.
  const auto cold = loaded->resident();
  EXPECT_GT(cold.mmap_bytes, 0u);

  // Forcing the AoS materialization moves bytes onto the heap but keeps
  // the mapped columns (and their identity) intact.
  EXPECT_EQ(io::write_schedule_xml(loaded->schedule()),
            io::write_schedule_xml(source->schedule()));
  const auto warm = loaded->resident();
  EXPECT_EQ(warm.mmap_bytes, cold.mmap_bytes);
  EXPECT_GT(warm.heap_bytes, cold.heap_bytes);

  // Store stats split resident bytes by backing, so /stats can report
  // how much of the fleet is still zero-copy.
  ScheduleStore store;
  store.put(loaded);
  store.put(make_entry(sample_schedule(8, 500.0), "heap-only"));
  const auto stats = store.stats();
  EXPECT_GE(stats.resident_mmap_bytes, cold.mmap_bytes);
  EXPECT_GT(stats.resident_heap_bytes, 0u);
  std::filesystem::remove(path);
}

/// Overlapping tasks on two clusters (composites), a "user" property on
/// the first tasks (highlight) and forward edges, some crossing clusters.
/// Task i does not depend on n, so a shorter schedule is a prefix.
model::Schedule columnar_schedule(int n) {
  model::ScheduleBuilder b;
  b.cluster(0, "c0", 16).cluster(1, "c1", 8);
  for (int i = 0; i < n; ++i) {
    const double start = (i * 7 % 40) * 0.5;
    b.task("t" + std::to_string(i), i % 3 ? "computation" : "transfer", start,
           start + 1.0 + (i % 4) * 0.75)
        .on(i % 2, i % 5 + (i % 2 ? 0 : 6), 1 + i % 3);
    if (i < 40) b.property("user", i % 4 ? "a" : "b");
  }
  model::Schedule s = b.build();
  for (int i = 1; i < n; ++i) {
    for (int back : {1, 3}) {
      if (i < back) continue;
      const auto src = static_cast<std::uint32_t>(i - back);
      if (s.tasks()[src].end_time() <= s.tasks()[i].start_time()) {
        s.add_dependency(src, static_cast<std::uint32_t>(i), back);
      }
    }
  }
  s.validate();
  return s;
}

/// Every windowed render and tile the columnar path serves: all six
/// exporters over three window styles, and tiles at zoom 0-4 over all
/// clusters and the first, with auto and forced LOD. Highlight and edges
/// are on throughout.
std::vector<std::string> columnar_renders(const EntryPtr& entry, int threads) {
  render::RenderOptions base;
  base.style.width = 240;
  base.style.height = 160;
  base.style.highlight_key = "user";
  base.style.highlight_value = "b";
  base.style.edges = render::EdgeMode::kAuto;
  base.threads = threads;
  std::vector<render::RenderOptions> windows(3, base);
  for (auto& options : windows) {
    options.style.time_window = model::TimeRange{6.0, 14.5};
  }
  windows[1].style.lod = render::LodMode::kForce;
  windows[2].style.edges = render::EdgeMode::kForce;
  std::vector<render::RenderOptions> tiles(2, base);
  tiles[1].style.lod = render::LodMode::kForce;

  // A fresh service per call: artifacts are keyed by content hash, which
  // the columnar entries share with the text entry they are compared to.
  RenderService service;
  std::vector<std::string> out;
  for (const auto& options : windows) {
    for (const auto& format :
         render::ExporterRegistry::instance().exporter_names()) {
      out.push_back(*service.render(entry, options, format).bytes);
    }
  }
  for (const auto& options : tiles) {
    for (int zoom = 0; zoom <= 4; ++zoom) {
      for (long long x = 0; x < (1ll << zoom); ++x) {
        for (long long y : {-1, 0}) {
          out.push_back(*service.render_tile(entry, x, y, zoom, options).bytes);
        }
      }
    }
  }
  return out;
}

TEST(ScheduleEntry, ColumnarRendersMatchAosAndNeverMaterialize) {
  // A `.jbin` entry and an entry appended to one render windows and tiles
  // from their arena columns: the bytes equal the text-loaded entry's,
  // and no render materializes the AoS form (it would show as heap).
  const model::Schedule full = columnar_schedule(80);
  const EntryPtr text = make_entry(full, "text");
  const std::string stem = std::filesystem::temp_directory_path().string() +
                           "/jedule_columnar_" + std::to_string(::getpid());
  const std::string full_path = stem + "_full.jbin";
  const std::string base_path = stem + "_base.jbin";
  io::save_snapshot(text->arena(), text->index, full_path, &text->edges);
  const EntryPtr base_text = make_entry(columnar_schedule(60), "base");
  io::save_snapshot(base_text->arena(), base_text->index, base_path,
                    &base_text->edges);

  const EntryPtr jbin = load_entry(full_path);
  const EntryPtr appended =
      append_entry(load_entry(base_path), events_from_tasks(full, 60));
  ASSERT_EQ(*appended->id, *text->id);
  ASSERT_GT(appended->edges->edge_count(), 0u);

  for (const EntryPtr& entry : {jbin, appended}) {
    ASSERT_EQ(entry->tasks().schedule(), nullptr);
    const std::size_t heap = entry->resident().heap_bytes;
    for (int threads : {1, 4}) {
      const auto want = columnar_renders(text, threads);
      // Two readers of one arena at once, as serve workers are.
      std::vector<std::string> got[2];
      std::thread other([&] { got[1] = columnar_renders(entry, threads); });
      got[0] = columnar_renders(entry, threads);
      other.join();
      for (const auto& bytes : got) {
        ASSERT_EQ(bytes.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(bytes[i], want[i]) << "render " << i << " threads="
                                       << threads;
        }
      }
    }
    EXPECT_EQ(entry->tasks().schedule(), nullptr);
    EXPECT_EQ(entry->resident().heap_bytes, heap);
  }
  std::filesystem::remove(full_path);
  std::filesystem::remove(base_path);
}

/// What an entry has built so far: index and edge index builds, and FNV
/// passes over its task table.
struct Built {
  int index = 0;
  int edges = 0;
  int hashes = 0;
  bool operator==(const Built&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Built& b) {
  return os << "{index " << b.index << ", edges " << b.edges << ", hashes "
            << b.hashes << "}";
}

Built built(const EntryPtr& e) {
  return {e->index.builds(), e->edges.builds(), e->task_hash_passes()};
}

TEST(ScheduleEntry, FullViewRenderBuildsNoIndexEdgeIndexOrHash) {
  // The `jedule render` path: a text-loaded entry through render_bytes.
  const model::Schedule s = columnar_schedule(80);
  const EntryPtr csv = parse_entry(io::write_schedule_csv(s), "in.csv");
  const EntryPtr xml = parse_entry(io::write_schedule_xml(s), "in.xml");
  ASSERT_GT(csv->tasks().dep_count(), 0u);
  ASSERT_GT(xml->tasks().dep_count(), 0u);

  render::RenderOptions options = small_options();
  options.style.width = 240;
  options.style.height = 160;
  // The same bytes as a render handed both indexes explicitly.
  const EntryPtr ref = make_entry(s);
  render::RenderOptions hinted = options;
  hinted.task_index = &ref->index;
  hinted.edge_index = &ref->edges;
  for (const render::EdgeMode mode : {render::EdgeMode::kAuto,
                                      render::EdgeMode::kForce}) {
    options.style.edges = hinted.style.edges = mode;
    for (const std::string format : {"png", "svg"}) {
      const std::string want = render::render_to_bytes(s, hinted, format);
      for (const EntryPtr& entry : {csv, xml}) {
        RenderService service;
        EXPECT_EQ(service.render_bytes(entry, options, format), want)
            << entry->source << " " << format;
      }
    }
  }
  EXPECT_EQ(built(csv), (Built{0, 0, 0}));
  EXPECT_EQ(built(xml), (Built{0, 0, 0}));
  EXPECT_FALSE(csv->index.built() || csv->edges.built() ||
               csv->content_hash.built() || csv->id.built());

  // render() keys its cache on the content hash: one hash, no index.
  RenderService service;
  service.render(xml, options, "png");
  EXPECT_EQ(built(xml), (Built{0, 0, 1}));
  EXPECT_EQ(*xml->id, *ref->id);
}

TEST(ScheduleEntry, EachTriggerBuildsOnlyWhatItNeeds) {
  const model::Schedule s = columnar_schedule(80);
  const EntryPtr ref = make_entry(s);
  const std::uint64_t want_hash = *ref->content_hash;
  render::RenderOptions windowed = small_options();
  windowed.style.time_window = model::TimeRange{6.0, 14.5};
  render::RenderOptions lod = small_options();
  lod.style.lod = render::LodMode::kForce;

  {  // ScheduleStore::put reads the id: one hash, no index.
    const EntryPtr e = make_entry(s);
    ScheduleStore store;
    store.put(e);
    EXPECT_EQ(built(e), (Built{0, 0, 1}));
    // An index built afterwards reuses that hash.
    EXPECT_EQ(e->index->content_hash(), ref->index->content_hash());
    EXPECT_EQ(built(e), (Built{1, 0, 1}));
  }
  {  // The index first: the id reuses its hash.
    const EntryPtr e = make_entry(s);
    e->index.get();
    EXPECT_EQ(built(e), (Built{1, 0, 1}));
    EXPECT_EQ(*e->content_hash, want_hash);
    EXPECT_EQ(built(e), (Built{1, 0, 1}));
  }
  {  // A windowed render and a tile cull through both indexes; the cache
     // key hashes once.
    const EntryPtr e = make_entry(s);
    RenderService service;
    service.render(e, windowed, "png");
    EXPECT_EQ(built(e), (Built{1, 1, 1}));
    service.render_tile(e, 0, -1, 1, small_options());
    EXPECT_EQ(built(e), (Built{1, 1, 1}));
  }
  {
    const EntryPtr e = make_entry(s);
    RenderService().render_tile(e, 1, 0, 2, small_options());
    EXPECT_EQ(built(e), (Built{1, 1, 1}));
  }
  {  // An LOD render builds the indexes; the uncached body computes no
     // key, so the index build's own hash is the only one.
    const EntryPtr e = make_entry(s);
    RenderService().render_bytes(e, lod, "png");
    EXPECT_EQ(built(e), (Built{1, 1, 1}));
    EXPECT_EQ(*e->content_hash, want_hash);
    EXPECT_EQ(built(e), (Built{1, 1, 1}));
  }
  {  // A session frame culls through both indexes.
    const EntryPtr e = make_entry(s);
    SessionState view(e, color::standard_colormap(), {});
    view.frame();
    EXPECT_EQ(built(e), (Built{1, 1, 1}));
  }
  {  // A snapshot converts to columns (one hash); the index and the id
     // reuse it.
    const EntryPtr e = make_entry(s);
    const model::ScheduleArena& arena = e->arena();
    EXPECT_EQ(built(e), (Built{0, 0, 1}));
    const std::string path = ::testing::TempDir() + "/trigger_" +
                             std::to_string(::getpid()) + ".jbin";
    io::save_snapshot(arena, e->index, path, &e->edges);
    std::filesystem::remove(path);
    EXPECT_EQ(*e->content_hash, want_hash);
    EXPECT_EQ(built(e), (Built{1, 1, 1}));
  }
  {  // An append to an unindexed base: the base converts to columns (one
     // hash); the new entry takes its id from the arena's running hash and
     // builds its indexes from the columns only when asked.
    const EntryPtr base = make_entry(columnar_schedule(60));
    const EntryPtr grown = append_entry(base, events_from_tasks(s, 60));
    EXPECT_EQ(built(base), (Built{0, 0, 1}));
    EXPECT_EQ(*grown->content_hash, want_hash);
    EXPECT_EQ(built(grown), (Built{0, 0, 0}));
    EXPECT_FALSE(grown->index.built() || grown->edges.built());
    EXPECT_EQ(grown->index->content_hash(), ref->index->content_hash());
    EXPECT_EQ(grown->edges->edge_count(), ref->edges->edge_count());
    EXPECT_EQ(grown->edges->critical_path(), ref->edges->critical_path());
    EXPECT_EQ(grown->full_range.begin, ref->full_range.begin);
    EXPECT_EQ(grown->full_range.end, ref->full_range.end);
    EXPECT_EQ(built(grown), (Built{1, 1, 0}));
  }
  {  // An append to an indexed base extends both indexes in O(delta).
    const EntryPtr base = make_entry(columnar_schedule(60));
    base->index.get();
    base->edges.get();
    const EntryPtr grown = append_entry(base, events_from_tasks(s, 60));
    EXPECT_EQ(built(base), (Built{1, 1, 1}));  // the arena reused the hash
    EXPECT_TRUE(grown->index.built() && grown->edges.built());
    EXPECT_EQ(built(grown), (Built{0, 0, 0}));
    EXPECT_EQ(grown->index->segment_count(0), 2u);
    EXPECT_EQ(*grown->content_hash, want_hash);
  }
}

TEST(ScheduleEntry, ConcurrentFirstReadsBuildEachPartOnce) {
  // Eight threads ask a fresh entry for its index, edge index and id at
  // the same moment, each in its own order: every part builds once and
  // every thread sees the same result.
  const model::Schedule s = columnar_schedule(80);
  const EntryPtr ref = make_entry(s);
  const std::string want_id = *ref->id;
  constexpr int kThreads = 8;
  for (int round = 0; round < 4; ++round) {
    const EntryPtr e = make_entry(s);
    std::vector<const model::TaskIndex*> indexes(kThreads);
    std::vector<const model::EdgeIndex*> edges(kThreads);
    std::vector<std::string> ids(kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        const auto i = static_cast<std::size_t>(t);
        start.arrive_and_wait();
        for (int k = 0; k < 3; ++k) {
          switch ((t + k) % 3) {
            case 0: indexes[i] = &e->index; break;
            case 1: edges[i] = &e->edges; break;
            default: ids[i] = e->id; break;
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(e->index.builds(), 1);
    EXPECT_EQ(e->edges.builds(), 1);
    EXPECT_EQ(e->id.builds(), 1);
    EXPECT_EQ(e->content_hash.builds(), 1);
    for (int t = 0; t < kThreads; ++t) {
      const auto i = static_cast<std::size_t>(t);
      EXPECT_EQ(indexes[i], indexes[0]);
      EXPECT_EQ(edges[i], edges[0]);
      EXPECT_EQ(ids[i], want_id);
    }
    EXPECT_EQ(indexes[0]->content_hash(), ref->index->content_hash());
    EXPECT_EQ(edges[0]->critical_path(), ref->edges->critical_path());
    // The id and the index may both start before either holds a hash;
    // nothing else hashes.
    EXPECT_LE(e->task_hash_passes(), 2);
  }
}

TEST(SessionState, ViewsShareOneEntry) {
  const EntryPtr entry = make_entry(sample_schedule());
  SessionState a(entry, color::standard_colormap(), {});
  SessionState b(entry, color::standard_colormap(), {});
  ASSERT_NE(a.tasks().schedule(), nullptr);
  EXPECT_EQ(a.tasks().schedule(), b.tasks().schedule());
  EXPECT_EQ(&a.index(), &b.index());

  a.zoom_to_time(1.0, 3.0);
  EXPECT_TRUE(a.style().time_window.has_value());
  EXPECT_FALSE(b.style().time_window.has_value());  // views are independent

  // The view outlives the store dropping its reference.
  ScheduleStore::Options opt;
  opt.max_entries = 1;
  ScheduleStore store(opt);
  store.put(entry);
  store.put(make_entry(sample_schedule(4, 500.0)));
  EXPECT_EQ(store.find(entry->id), nullptr);
  EXPECT_GT(a.frame().width(), 0);
}

TEST(Options, SharedParserMatchesCliAndHttpSpelling) {
  const std::map<std::string, std::string> query = {
      {"width", "320"},   {"height", "200"},      {"aligned", ""},
      {"window", "1:42"}, {"lod", "force"},       {"grayscale", "true"},
      {"threads", "2"},   {"highlight", "user=6447"}};
  auto get = [&query](const std::string& key) -> std::optional<std::string> {
    auto it = query.find(key);
    if (it == query.end()) return std::nullopt;
    return it->second;
  };
  const render::RenderOptions options = render_options_from(get, false);
  EXPECT_EQ(options.style.width, 320);
  EXPECT_EQ(options.style.height, 200);
  EXPECT_EQ(options.style.view_mode, model::ViewMode::kAligned);
  ASSERT_TRUE(options.style.time_window.has_value());
  EXPECT_DOUBLE_EQ(options.style.time_window->end, 42.0);
  EXPECT_EQ(options.style.lod, render::LodMode::kForce);
  EXPECT_EQ(options.style.highlight_key, "user");
  EXPECT_EQ(options.threads, 2);

  auto bad = [](const std::string& key) -> std::optional<std::string> {
    if (key == "width") return "zero";
    return std::nullopt;
  };
  EXPECT_THROW(render_options_from(bad), ArgumentError);
  auto cmap = [](const std::string& key) -> std::optional<std::string> {
    if (key == "cmap") return "/etc/passwd";
    return std::nullopt;
  };
  // The HTTP frontend must not turn a query param into a file read.
  EXPECT_THROW(render_options_from(cmap, false), ArgumentError);
  EXPECT_EQ(parse_lod_mode("auto"), render::LodMode::kAuto);
  EXPECT_THROW(parse_lod_mode("sometimes"), ArgumentError);
}

TEST(Options, CanvasIsBoundedByMaxPixels) {
  // Each side alone is in range; their product is what allocates.
  auto wide = [](const std::string& key) -> std::optional<std::string> {
    if (key == "width") return "16777216";
    return std::nullopt;
  };
  EXPECT_THROW(render_options_from(wide), ArgumentError);
  auto square = [](const std::string& key) -> std::optional<std::string> {
    if (key == "width" || key == "height") return "8192";
    return std::nullopt;
  };
  EXPECT_EQ(render_options_from(square).style.width, 8192);
  EXPECT_NO_THROW(check_canvas(8192, 8192));
  EXPECT_THROW(check_canvas(8192, 8193), ArgumentError);
}

}  // namespace
}  // namespace jedule::engine
