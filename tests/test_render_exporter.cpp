// Exporter registry: name/extension lookup, dispatch from export_schedule /
// render_to_bytes, and user registration semantics.

#include "jedule/render/exporter.hpp"

#include <gtest/gtest.h>

#include "jedule/io/file.hpp"
#include "jedule/model/builder.hpp"
#include "jedule/util/error.hpp"

namespace jedule::render {
namespace {

model::Schedule demo_schedule() {
  return model::ScheduleBuilder()
      .cluster(0, "c0", 8)
      .task("1", "computation", 0.0, 0.31)
      .on(0, 0, 8)
      .task("2", "transfer", 0.25, 0.50)
      .on(0, 2, 4)
      .build();
}

RenderOptions small_options() {
  RenderOptions options;
  options.style.width = 320;
  options.style.height = 200;
  options.threads = 1;
  return options;
}

TEST(ExporterRegistry, BuiltinsAreRegistered) {
  auto& registry = ExporterRegistry::instance();
  for (const char* name : {"png", "ppm", "svg", "svgz", "pdf", "ascii"}) {
    const Exporter* e = registry.find(name);
    ASSERT_NE(e, nullptr) << name;
    EXPECT_EQ(e->name(), name);
    EXPECT_FALSE(e->extensions().empty());
    EXPECT_FALSE(e->description().empty());
  }
  EXPECT_EQ(registry.find("jpeg"), nullptr);
}

TEST(ExporterRegistry, FindForPathIsCaseInsensitive) {
  auto& registry = ExporterRegistry::instance();
  const Exporter* png = registry.find_for_path("chart.PNG");
  ASSERT_NE(png, nullptr);
  EXPECT_EQ(png->name(), "png");
  const Exporter* svg = registry.find_for_path("a/b/chart.Svg");
  ASSERT_NE(svg, nullptr);
  EXPECT_EQ(svg->name(), "svg");
  const Exporter* ascii = registry.find_for_path("out.TXT");
  ASSERT_NE(ascii, nullptr);
  EXPECT_EQ(ascii->name(), "ascii");
  const Exporter* svgz = registry.find_for_path("chart.svgz");
  ASSERT_NE(svgz, nullptr);
  EXPECT_EQ(svgz->name(), "svgz");
  const Exporter* svg_gz = registry.find_for_path("chart.SVG.GZ");
  ASSERT_NE(svg_gz, nullptr);
  EXPECT_EQ(svg_gz->name(), "svgz");
  EXPECT_EQ(registry.find_for_path("chart.jpeg"), nullptr);
  EXPECT_EQ(registry.find_for_path("no_extension"), nullptr);
}

TEST(ExporterRegistry, ExtensionSummaryListsEverything) {
  const std::string summary = ExporterRegistry::instance().extension_summary();
  for (const char* ext : {".png", ".ppm", ".svg", ".pdf", ".txt"}) {
    EXPECT_NE(summary.find(ext), std::string::npos) << ext;
  }
}

TEST(ExporterRegistry, RenderToBytesForEveryBuiltin) {
  const auto schedule = demo_schedule();
  const auto options = small_options();
  for (const char* name : {"png", "ppm", "svg", "svgz", "pdf", "ascii"}) {
    const std::string bytes = render_to_bytes(schedule, options, name);
    EXPECT_GT(bytes.size(), 50u) << name;
  }
  EXPECT_THROW(render_to_bytes(schedule, options, "jpeg"), ArgumentError);
}

TEST(ExporterRegistry, ExportScheduleDispatchesOnExtension) {
  const auto schedule = demo_schedule();
  const auto options = small_options();
  const std::string path = ::testing::TempDir() + "/exporter_upper.PNG";
  export_schedule(schedule, options, path);
  const std::string bytes = io::read_file(path);
  EXPECT_EQ(bytes.substr(1, 3), "PNG");
  EXPECT_EQ(bytes, render_to_bytes(schedule, options, "png"));

  // Explicit format wins over the extension.
  const std::string forced = ::testing::TempDir() + "/exporter_forced.dat";
  export_schedule(schedule, options, forced, "ppm");
  EXPECT_EQ(io::read_file(forced).substr(0, 2), "P6");

  EXPECT_THROW(export_schedule(schedule, options,
                               ::testing::TempDir() + "/exporter.jpeg"),
               ArgumentError);
}

class CountedExporter : public Exporter {
 public:
  explicit CountedExporter(std::string description)
      : description_(std::move(description)) {}
  std::string name() const override { return "test-fmt"; }
  std::vector<std::string> extensions() const override { return {".tfmt"}; }
  std::string description() const override { return description_; }
  std::string render(model::TaskView tasks,
                     const RenderOptions&) const override {
    return "test-fmt:" + std::to_string(tasks.size());
  }

 private:
  std::string description_;
};

TEST(ExporterRegistry, DuplicateRegistrationReplaces) {
  auto& registry = ExporterRegistry::instance();
  registry.register_exporter(std::make_unique<CountedExporter>("first"));
  registry.register_exporter(std::make_unique<CountedExporter>("second"));

  const Exporter* e = registry.find("test-fmt");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->description(), "second");

  int seen = 0;
  for (const auto& name : registry.exporter_names()) {
    if (name == "test-fmt") ++seen;
  }
  EXPECT_EQ(seen, 1);

  // The user exporter owns its extension and works through the free
  // functions like any built-in.
  const Exporter* by_ext = registry.find_for_path("x.TFMT");
  ASSERT_NE(by_ext, nullptr);
  EXPECT_EQ(by_ext->name(), "test-fmt");
  const model::Schedule schedule = demo_schedule();
  EXPECT_EQ(render_to_bytes(schedule, small_options(), "test-fmt"),
            "test-fmt:2");
}

}  // namespace
}  // namespace jedule::render
