// Golden output bytes: every case below is rendered by every registered
// exporter, under every available SIMD kernel and at 1, 2 and 8 threads,
// along each of the case's render paths (the engine, which hands a
// windowed or LOD view the entry's task and edge index and a full view
// neither, plus its cached composites; the bare exporter given both
// indexes explicitly; the bare exporter without any of them; a `.jbin`
// snapshot reloaded through the engine). Every cell's
// FNV-1a 64 digest must equal the one committed in golden_digests.txt, so
// a change that moves output bytes fails here even when it moves them the
// same way at every thread count and kernel.
//
// `test_golden_outputs --update` rewrites the table from the current
// renders (each case must still agree with itself across paths, kernels
// and threads). A change that alters a digest lists it, with the reason,
// in CHANGES.md.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "jedule/cli/demos.hpp"
#include "jedule/engine/render_service.hpp"
#include "jedule/engine/store.hpp"
#include "jedule/io/snapshot.hpp"
#include "jedule/model/builder.hpp"
#include "jedule/model/fnv.hpp"
#include "jedule/render/exporter.hpp"
#include "jedule/render/kernels.hpp"
#include "jedule/taskpool/log_schedule.hpp"
#include "jedule/util/rng.hpp"

namespace jedule {
namespace {

bool g_update = false;
/// "<case> <format>" -> digest computed in this run (for --update).
std::map<std::string, std::string> g_computed;

std::string hex_digest(const std::string& bytes) {
  std::uint64_t h = model::detail::kFnvOffset;
  model::detail::fnv_bytes(&h, bytes.data(), bytes.size());
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// The committed table: "<case> <format>" -> digest.
const std::map<std::string, std::string>& golden_table() {
  static const std::map<std::string, std::string> table = [] {
    std::map<std::string, std::string> t;
    std::ifstream in(JEDULE_GOLDEN_TABLE);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream fields(line);
      std::string name, format, digest;
      fields >> name >> format >> digest;
      t[name + " " + format] = digest;
    }
    return t;
  }();
  return table;
}

// --- schedules -------------------------------------------------------------

/// Paper Figs. 11-12 come from a threaded quicksort whose intervals depend
/// on wall-clock timing; a seeded synthetic run log of the same shape
/// (8 workers, execution and waiting intervals) pins the conversion and the
/// rendering instead. `sequential_head` reproduces Fig. 12's long serial
/// partition on worker 0 while the others wait.
model::Schedule quicksort_schedule(bool sequential_head) {
  util::Rng rng(sequential_head ? 12 : 11);
  taskpool::RunLog log;
  log.threads = 8;
  log.per_thread.resize(8);
  std::int64_t task = 0;
  const double head = sequential_head ? 0.2 : 0.0;
  for (int t = 0; t < 8; ++t) {
    auto& tl = log.per_thread[static_cast<std::size_t>(t)];
    double cursor = 0;
    if (sequential_head) {
      if (t == 0) {
        tl.exec.push_back({0.0, head, task++});
      } else {
        tl.wait.push_back({0.0, head, -1});
      }
      cursor = head;
    }
    while (cursor < head + 0.25) {
      const double run = rng.uniform(0.002, 0.03);
      tl.exec.push_back({cursor, cursor + run, task++});
      cursor += run;
      const double idle = rng.uniform(0.0005, 0.006);
      tl.wait.push_back({cursor, cursor + idle, -1});
      cursor += idle;
    }
    log.wallclock = std::max(log.wallclock, cursor);
  }
  log.tasks_executed = task;
  taskpool::LogScheduleOptions options;
  options.merge_gap = log.wallclock / 4000.0;
  return taskpool::log_to_schedule(log, options);
}

/// Two clusters of overlapping tasks (composites in both) chained by
/// precedence edges, one of them crossing clusters.
model::Schedule mixed_schedule() {
  util::Rng rng(3);
  model::ScheduleBuilder b;
  b.cluster(0, "c0", 16).cluster(1, "c1", 8);
  for (int i = 0; i < 60; ++i) {
    const double start = rng.uniform(0.0, 20.0);
    const int cluster = i % 2;
    b.task(std::to_string(i), i % 3 ? "computation" : "transfer", start,
           start + rng.uniform(0.5, 4.0))
        .on(cluster, static_cast<int>(rng.uniform_int(0, cluster ? 5 : 12)),
            1 + static_cast<int>(rng.uniform_int(0, 2)));
  }
  model::Schedule s = b.build();
  for (std::uint32_t i = 1; i < 60; ++i) {
    if (s.tasks()[i - 1].end_time() <= s.tasks()[i].start_time()) {
      s.add_dependency(i - 1, i, 1.0);
    }
  }
  s.validate();
  return s;
}

/// Four-task pipeline across two clusters: a handful of arrows, two of
/// them crossing clusters.
model::Schedule pipeline_schedule() {
  model::Schedule s = model::ScheduleBuilder()
                          .cluster(0, "c0", 8)
                          .cluster(1, "c1", 8)
                          .task("a", "computation", 0.0, 2.0)
                          .on(0, 0, 4)
                          .task("b", "computation", 2.5, 5.0)
                          .on(0, 4, 4)
                          .task("c", "transfer", 5.0, 6.0)
                          .on(1, 0, 2)
                          .task("d", "computation", 6.5, 9.0)
                          .on(1, 2, 4)
                          .build();
  s.add_dependency(0, 1, 1.0);
  s.add_dependency(1, 2, 2.0);
  s.add_dependency(2, 3, 1.0);
  s.add_dependency(0, 3, 0.5);
  s.validate();
  return s;
}

/// Random DAG dense enough to exceed the arrow budget at 160 px.
model::Schedule dense_edge_schedule() {
  util::Rng rng(7);
  model::ScheduleBuilder b;
  b.cluster(0, "c0", 16).cluster(1, "c1", 16);
  const int n = 120;
  for (int i = 0; i < n; ++i) {
    const double s0 = rng.uniform(0.0, 50.0);
    b.task(std::to_string(i), i % 2 ? "computation" : "transfer", s0,
           s0 + rng.uniform(0.5, 6.0));
    b.on(i % 2, static_cast<int>(rng.uniform_int(0, 12)), 2);
  }
  model::Schedule s = b.build();
  for (int added = 0; added < 1500;) {
    auto a = static_cast<std::uint32_t>(rng.uniform_int(0, n - 1));
    auto c = static_cast<std::uint32_t>(rng.uniform_int(0, n - 1));
    if (a == c) continue;
    if (a > c) std::swap(a, c);
    s.add_dependency(a, c, 1.0);
    ++added;
  }
  s.validate();
  return s;
}

// --- cases -----------------------------------------------------------------

/// How one case's bytes are produced; every path must give the same bytes.
/// The engine path synthesizes composites once per entry; the direct path
/// sweeps them in every render, at the render's thread count.
enum class Path {
  kEngine,   // engine::make_entry + RenderService (the CLI and serve path)
  kIndexed,  // render_to_bytes with the entry's TaskIndex and EdgeIndex
  kDirect,   // render_to_bytes: full scans, brute-force edges, fresh sweep
  kJbin,     // .jbin snapshot -> engine::load_entry + RenderService
};

const char* path_name(Path p) {
  switch (p) {
    case Path::kEngine: return "engine";
    case Path::kIndexed: return "indexed";
    case Path::kDirect: return "direct";
    case Path::kJbin: return "jbin";
  }
  return "?";
}

struct Case {
  model::Schedule schedule;
  render::RenderOptions options;
  std::vector<Path> paths{Path::kEngine, Path::kIndexed};
};

render::RenderOptions sized(int width, int height) {
  render::RenderOptions options;
  options.style.width = width;
  options.style.height = height;
  return options;
}

/// The figure cases render what `jedule demo NAME` renders, on a smaller
/// canvas.
Case demo_case(const std::string& name) {
  Case c{cli::make_demo(name), sized(240, 256)};
  if (name == "thunder") {
    c.options.style.show_labels = false;
    c.options.style.show_composites = false;
    c.options.style.highlight_key = "user";
    c.options.style.highlight_value = "6447";
  }
  return c;
}

/// Edges without composites, so the indexed and direct paths differ only
/// in the edge pass: EdgeIndex queries vs the scan of the dependency
/// columns (which the engine's full view runs too). The `.jbin` path lays
/// the edges out from the arena columns.
Case edge_case(model::Schedule s, render::EdgeMode mode) {
  Case c{std::move(s), sized(160, 200),
         {Path::kEngine, Path::kIndexed, Path::kDirect, Path::kJbin}};
  c.options.style.edges = mode;
  c.options.style.show_composites = false;
  return c;
}

const std::map<std::string, std::function<Case()>>& case_builders() {
  static const std::map<std::string, std::function<Case()>> builders = {
      {"composite",
       [] {
         Case c = demo_case("composite");
         c.paths.push_back(Path::kDirect);
         return c;
       }},
      {"cpa", [] { return demo_case("cpa"); }},
      {"mcpa", [] { return demo_case("mcpa"); }},
      {"cra", [] { return demo_case("cra"); }},
      {"heft-flat", [] { return demo_case("heft-flat"); }},
      {"heft", [] { return demo_case("heft"); }},
      {"qsort", [] { return Case{quicksort_schedule(false), sized(240, 256)}; }},
      {"qsort-adversarial",
       [] { return Case{quicksort_schedule(true), sized(240, 256)}; }},
      {"thunder", [] { return demo_case("thunder"); }},
      {"window",
       [] {
         // The `.jbin` path renders the window from the arena columns.
         Case c{mixed_schedule(), sized(240, 160),
                {Path::kEngine, Path::kIndexed, Path::kJbin}};
         c.options.style.time_window = model::TimeRange{6.0, 14.5};
         return c;
       }},
      {"lod-force",
       [] {
         Case c{mixed_schedule(), sized(240, 160),
                {Path::kEngine, Path::kIndexed, Path::kJbin}};
         c.options.style.lod = render::LodMode::kForce;
         return c;
       }},
      {"edges-arrows",
       [] { return edge_case(pipeline_schedule(), render::EdgeMode::kAuto); }},
      {"edges-heat",
       [] { return edge_case(dense_edge_schedule(), render::EdgeMode::kAuto); }},
      {"edges-force",
       [] {
         return edge_case(pipeline_schedule(), render::EdgeMode::kForce);
       }},
      {"composites", [] { return Case{mixed_schedule(), sized(240, 160)}; }},
      {"composites-hatched",
       [] {
         Case c{mixed_schedule(), sized(240, 160)};
         c.options.style.hatch_composites = true;
         return c;
       }},
      {"jbin",
       [] {
         // Same schedule and options as "composites": same digests.
         return Case{mixed_schedule(), sized(240, 160), {Path::kJbin}};
       }},
  };
  return builders;
}

std::vector<std::string> case_names() {
  std::vector<std::string> names;
  for (const auto& [name, build] : case_builders()) names.push_back(name);
  return names;
}

/// Renders one case along every path. Entries are built once and every
/// render gets a fresh RenderService, so no cell is an artifact-cache hit
/// of another.
class Renderer {
 public:
  explicit Renderer(const Case& c)
      : case_(c), entry_(engine::make_entry(c.schedule)) {
    if (std::count(c.paths.begin(), c.paths.end(), Path::kJbin) != 0) {
      jbin_path_ = ::testing::TempDir() + "/golden_" +
                   std::to_string(::getpid()) + ".jbin";
      io::save_snapshot(entry_->arena(), entry_->index, jbin_path_,
                        &entry_->edges);
      jbin_entry_ = engine::load_entry(jbin_path_);
    }
  }
  ~Renderer() {
    if (!jbin_path_.empty()) std::filesystem::remove(jbin_path_);
  }
  Renderer(const Renderer&) = delete;
  Renderer& operator=(const Renderer&) = delete;

  std::string render(Path path, const std::string& format, int threads) const {
    render::RenderOptions options = case_.options;
    options.threads = threads;
    if (path == Path::kIndexed) {
      options.task_index = &entry_->index;
      options.edge_index = &entry_->edges;
      return render::render_to_bytes(case_.schedule, options, format);
    }
    if (path == Path::kDirect) {
      return render::render_to_bytes(case_.schedule, options, format);
    }
    const engine::EntryPtr& entry = path == Path::kJbin ? jbin_entry_ : entry_;
    return *engine::RenderService().render(entry, options, format).bytes;
  }

 private:
  const Case& case_;
  engine::EntryPtr entry_;
  std::string jbin_path_;
  engine::EntryPtr jbin_entry_;
};

class GoldenOutputs : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenOutputs, MatchTable) {
  const std::string& name = GetParam();
  const Case c = case_builders().at(name)();
  const Renderer renderer(c);
  for (const render::Exporter* exporter :
       render::ExporterRegistry::instance().exporters()) {
    const std::string format = exporter->name();
    const std::string key = name + " " + format;
    std::string want;
    if (!g_update) {
      const auto it = golden_table().find(key);
      ASSERT_NE(it, golden_table().end())
          << "no golden digest for '" << key
          << "'; run test_golden_outputs --update";
      want = it->second;
    }
    for (const render::kernels::Kernels* k : render::kernels::available()) {
      render::kernels::override_active(k);
      for (const Path path : c.paths) {
        for (const int threads : {1, 2, 8}) {
          const std::string got =
              hex_digest(renderer.render(path, format, threads));
          if (want.empty()) want = got;
          EXPECT_EQ(got, want)
              << key << " path=" << path_name(path) << " kernel=" << k->name
              << " threads=" << threads;
        }
      }
    }
    render::kernels::override_active(nullptr);
    g_computed[key] = want;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, GoldenOutputs, ::testing::ValuesIn(case_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string id = info.param;
      for (char& ch : id) {
        if (ch == '-') ch = '_';
      }
      return id;
    });

/// Rewrites the committed table: this run's digests replace their rows,
/// rows of cases that no longer exist are dropped, and rows a
/// --gtest_filter skipped are kept.
bool write_table() {
  std::map<std::string, std::string> table;
  for (const auto& [key, digest] : golden_table()) {
    if (case_builders().count(key.substr(0, key.find(' '))) != 0) {
      table[key] = digest;
    }
  }
  for (const auto& [key, digest] : g_computed) table[key] = digest;
  std::ofstream out(JEDULE_GOLDEN_TABLE);
  out << "# FNV-1a 64 digests of the bytes test_golden_outputs renders:\n"
         "# <case> <format> <digest>. Regenerate with "
         "`test_golden_outputs --update`;\n"
         "# a change that alters a digest lists it and the reason in "
         "CHANGES.md.\n";
  for (const auto& [key, digest] : table) out << key << " " << digest << "\n";
  out.close();
  return static_cast<bool>(out);
}

}  // namespace
}  // namespace jedule

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--update") jedule::g_update = true;
  }
  const int status = RUN_ALL_TESTS();
  if (!jedule::g_update) return status;
  if (status != 0) {
    std::fprintf(stderr, "not updating %s: the run failed\n",
                 JEDULE_GOLDEN_TABLE);
    return status;
  }
  if (!jedule::write_table()) {
    std::fprintf(stderr, "cannot write %s\n", JEDULE_GOLDEN_TABLE);
    return 1;
  }
  std::printf("updated %s (%zu digests rendered)\n", JEDULE_GOLDEN_TABLE,
              jedule::g_computed.size());
  return 0;
}
