// End-to-end tests of the `jedule` command-line tool (paper Sec. II.D.2's
// batch mode), driving the real binary. The binary path arrives via the
// JEDULE_CLI_PATH compile definition.

#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <string>

#include "jedule/io/csv.hpp"
#include "jedule/io/file.hpp"
#include "jedule/io/jedule_xml.hpp"
#include "jedule/model/builder.hpp"

namespace {

using namespace jedule;

struct CommandResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

CommandResult run_cli(const std::string& args) {
  const std::string command = std::string(JEDULE_CLI_PATH) + " " + args +
                              " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  CommandResult result;
  std::array<char, 4096> buffer;
  while (std::fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    result.output += buffer.data();
  }
  const int status = pclose(pipe);
  result.exit_code = WEXITSTATUS(status);
  return result;
}

// Per-process scratch names: ctest runs each test as its own process, and
// with a fixed name two concurrently running tests would race on the same
// file (one reads while another rewrites it).
std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + name;
}

std::string make_schedule_file() {
  const auto schedule = model::ScheduleBuilder()
                            .cluster(0, "c0", 8)
                            .meta("algorithm", "clitest")
                            .task("1", "computation", 0.0, 0.31)
                            .on(0, 0, 8)
                            .task("2", "transfer", 0.25, 0.5)
                            .on(0, 2, 4)
                            .build();
  const std::string path = temp_path("cli_schedule.jed");
  io::save_schedule_xml(schedule, path);
  return path;
}

/// A CSV schedule with dependency edges across two clusters, plus its
/// `.jbin` snapshot written by `jedule snapshot`: the same content once
/// through the text parser and once through the mmapped snapshot. Both
/// live in a per-process directory that also takes the test's outputs
/// and goes away with the struct.
struct TwinInputs {
  std::string dir;
  std::string csv;
  std::string jbin;

  std::string path(const std::string& name) const { return dir + "/" + name; }
  ~TwinInputs() { std::filesystem::remove_all(dir); }
};

void make_twin_inputs(TwinInputs* twins) {
  model::ScheduleBuilder b;
  b.cluster(0, "c0", 16).cluster(1, "c1", 8).meta("algorithm", "twins");
  for (int i = 0; i < 120; ++i) {
    const double start = 0.5 * i;
    b.task(std::to_string(i), i % 3 ? "computation" : "transfer", start,
           start + 2.0 + i % 4)
        .on(i % 2, (i * 3) % (i % 2 ? 6 : 14), 2);
  }
  model::Schedule schedule = b.build();
  for (std::uint32_t i = 1; i < 120; ++i) {
    schedule.add_dependency(i - 1, i, 1.0);
    if (i >= 7) schedule.add_dependency(i - 7, i);
  }
  twins->dir = temp_path("twins");
  std::filesystem::create_directories(twins->dir);
  twins->csv = twins->path("src.csv");
  twins->jbin = twins->path("snap.jbin");
  io::save_schedule_csv(schedule, twins->csv);
  const auto r = run_cli("snapshot " + twins->csv + " --out " + twins->jbin);
  ASSERT_EQ(r.exit_code, 0) << r.output;
}

TEST(Cli, JbinWindowRenderMatchesCsvAtAnyThreadCount) {
  TwinInputs twins;
  ASSERT_NO_FATAL_FAILURE(make_twin_inputs(&twins));
  const std::string want = twins.path("want.png");
  ASSERT_EQ(run_cli("render " + twins.csv + " --out " + want +
                    " --window 10:30 --threads 1")
                .exit_code,
            0);
  for (const std::string& src : {twins.csv, twins.jbin}) {
    for (const char* threads : {"1", "4"}) {
      const std::string out = twins.path("got.png");
      const auto r = run_cli("render " + src + " --out " + out +
                             " --window 10:30 --threads " + threads);
      ASSERT_EQ(r.exit_code, 0) << r.output;
      EXPECT_EQ(io::read_file(out), io::read_file(want))
          << src << " --threads " << threads;
    }
  }
}

TEST(Cli, InfoJbinMatchesCsv) {
  TwinInputs twins;
  ASSERT_NO_FATAL_FAILURE(make_twin_inputs(&twins));
  const auto csv = run_cli("info " + twins.csv);
  const auto jbin = run_cli("info " + twins.jbin);
  ASSERT_EQ(csv.exit_code, 0) << csv.output;
  ASSERT_EQ(jbin.exit_code, 0) << jbin.output;
  EXPECT_NE(csv.output.find("edges:       232"), std::string::npos)
      << csv.output;
  EXPECT_NE(csv.output.find("critical path:"), std::string::npos);
  EXPECT_NE(csv.output.find("algorithm = twins"), std::string::npos);
  EXPECT_EQ(jbin.output, csv.output);
}

// The edge block of `info` on the twins, pinned byte for byte: its edge
// density and critical path are computed in one pass over the dependency
// columns, and must read exactly what the edge index reported.
TEST(Cli, InfoEdgeLinesArePinned) {
  TwinInputs twins;
  ASSERT_NO_FATAL_FAILURE(make_twin_inputs(&twins));
  for (const std::string& src : {twins.csv, twins.jbin}) {
    const auto r = run_cli("info " + src);
    ASSERT_EQ(r.exit_code, 0) << r.output;
    EXPECT_NE(r.output.find("edges:       232\n"
                            "  max edges/column: 10 (1000-column grid)\n"
                            "  critical path: 120 task(s), length 420.000\n"),
              std::string::npos)
        << r.output;
  }
}

TEST(Cli, ConvertJbinRoundTripsToCsv) {
  TwinInputs twins;
  ASSERT_NO_FATAL_FAILURE(make_twin_inputs(&twins));
  const std::string back = twins.path("back.csv");
  const auto r = run_cli("convert " + twins.jbin + " --out " + back);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(io::read_file(back), io::read_file(twins.csv));
}

TEST(Cli, BatchMatchesSingleRenders) {
  TwinInputs twins;
  ASSERT_NO_FATAL_FAILURE(make_twin_inputs(&twins));
  const std::string dir = twins.path("batch");
  const auto r = run_cli("batch " + twins.csv + " " + twins.jbin +
                         " --out-dir " + dir + " --threads 4");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("wrote 2/2"), std::string::npos) << r.output;
  for (const std::string& src : {twins.csv, twins.jbin}) {
    const std::string single = twins.path("single.png");
    ASSERT_EQ(run_cli("render " + src + " --out " + single).exit_code, 0);
    const std::string stem = std::filesystem::path(src).stem().string();
    EXPECT_EQ(io::read_file(dir + "/" + stem + ".png"), io::read_file(single))
        << src;
  }
}

TEST(Cli, BatchStemCollisionFails) {
  TwinInputs twins;
  ASSERT_NO_FATAL_FAILURE(make_twin_inputs(&twins));
  const std::string twin_csv = twins.path("snap.csv");  // the .jbin's stem
  io::write_file(twin_csv, io::read_file(twins.csv));
  const auto r = run_cli("batch " + twins.jbin + " " + twin_csv +
                         " --out-dir " + twins.path("collide"));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("would both write"), std::string::npos) << r.output;
}

TEST(Cli, UnknownExporterListsSupportedFormats) {
  const std::string schedule = make_schedule_file();
  for (const std::string flags :
       {" --out x.jpg", " --out x.png --image-format jpeg"}) {
    const auto r = run_cli("render " + schedule + flags);
    EXPECT_EQ(r.exit_code, 1) << flags;
    EXPECT_NE(r.output.find("supported formats: png .png"), std::string::npos)
        << r.output;
  }
  const auto batch = run_cli("batch " + schedule + " --out-dir " +
                             temp_path("cli_batch_jpg") + " --ext .jpg");
  EXPECT_EQ(batch.exit_code, 1);
  EXPECT_NE(batch.output.find("supported formats:"), std::string::npos)
      << batch.output;
}

TEST(Cli, ViewHonoursFormatForLoadAndFollow) {
  // SWF lines without the ';' header and under a neutral name: no parser
  // sniffs this, so only an explicit --format swf can load it.
  const std::string log = temp_path("cli_trace.log");
  io::write_file(log,
                 "1 0 0 100 4 -1 -1 4 -1 -1 1 10 1 1 1 1 -1 -1\n"
                 "2 20 5 50 8 -1 -1 8 -1 -1 1 11 1 1 1 1 -1 -1\n");
  const std::string script = temp_path("cli_follow_script.txt");
  io::write_file(script, "info\nfollow\nreread\nquit\n");
  const auto r =
      run_cli("view " + log + " --format swf --threads 2 --script " + script);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("2 task(s)"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("no new tasks"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("reloaded " + log), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("error"), std::string::npos) << r.output;
  // Without the flag the load fails up front, naming the remedy.
  const auto sniffed = run_cli("view " + log + " --script " + script);
  EXPECT_EQ(sniffed.exit_code, 1);
  EXPECT_NE(sniffed.output.find("--format"), std::string::npos);
  std::remove(log.c_str());
  std::remove(script.c_str());
}

TEST(Cli, ViewExportMatchesRender) {
  TwinInputs twins;
  ASSERT_NO_FATAL_FAILURE(make_twin_inputs(&twins));
  const std::string flags = " --width 640 --height 400 --edges force";
  const std::string script = twins.path("export_script.txt");
  io::write_file(script, "window 10 30\nexport " + twins.path("view.png") +
                             "\nexport " + twins.path("view.svg") + "\n");
  const auto r = run_cli("view " + twins.csv + flags + " --script " + script);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  for (const char* ext : {".png", ".svg"}) {
    const std::string want = twins.path(std::string("render") + ext);
    const auto rendered = run_cli("render " + twins.csv + " --out " + want +
                                  " --window 10:30" + flags);
    ASSERT_EQ(rendered.exit_code, 0) << rendered.output;
    EXPECT_EQ(io::read_file(twins.path(std::string("view") + ext)),
              io::read_file(want))
        << ext;
  }
}

TEST(Cli, NoArgumentsPrintsUsage) {
  const auto r = run_cli("");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(Cli, UnknownCommandFails) {
  const auto r = run_cli("frobnicate");
  EXPECT_EQ(r.exit_code, 2);
}

TEST(Cli, UnknownFlagRejected) {
  const auto r = run_cli("info " + make_schedule_file() + " --sideways");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("unknown flag"), std::string::npos);
}

TEST(Cli, InfoPrintsStatistics) {
  const auto r = run_cli("info " + make_schedule_file());
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("tasks:       2"), std::string::npos);
  EXPECT_NE(r.output.find("makespan:    0.500"), std::string::npos);
  EXPECT_NE(r.output.find("algorithm = clitest"), std::string::npos);
}

TEST(Cli, RenderProducesEachFormat) {
  const std::string schedule = make_schedule_file();
  for (const char* ext : {"png", "ppm", "svg", "pdf"}) {
    const std::string out = temp_path(std::string("cli_out.") + ext);
    const auto r = run_cli("render " + schedule + " --out " + out);
    EXPECT_EQ(r.exit_code, 0) << ext << ": " << r.output;
    const std::string bytes = io::read_file(out);
    EXPECT_GT(bytes.size(), 100u) << ext;
    std::remove(out.c_str());
  }
}

TEST(Cli, RenderOptionsAreApplied) {
  const std::string schedule = make_schedule_file();
  const std::string a = temp_path("cli_a.ppm");
  const std::string b = temp_path("cli_b.ppm");
  ASSERT_EQ(run_cli("render " + schedule + " --out " + a).exit_code, 0);
  ASSERT_EQ(run_cli("render " + schedule + " --out " + b + " --grayscale")
                .exit_code,
            0);
  EXPECT_NE(io::read_file(a), io::read_file(b));

  // Size flags change the header of the PPM.
  const std::string c = temp_path("cli_c.ppm");
  ASSERT_EQ(run_cli("render " + schedule + " --out " + c +
                    " --width 320 --height 200")
                .exit_code,
            0);
  EXPECT_NE(io::read_file(c).find("320 200"), std::string::npos);
  std::remove(a.c_str());
  std::remove(b.c_str());
  std::remove(c.c_str());
}

TEST(Cli, RenderValidatesFlags) {
  const std::string schedule = make_schedule_file();
  EXPECT_EQ(run_cli("render " + schedule).exit_code, 1);  // missing --out
  EXPECT_EQ(run_cli("render " + schedule + " --out x.png --window nope")
                .exit_code,
            1);
  EXPECT_EQ(run_cli("render " + schedule + " --out x.png --width 0")
                .exit_code,
            1);
  EXPECT_EQ(run_cli("render /no/such/file.jed --out x.png").exit_code, 1);
}

TEST(Cli, ConvertRoundTripsThroughCsv) {
  const std::string schedule = make_schedule_file();
  const std::string csv = temp_path("cli_conv.csv");
  const std::string back = temp_path("cli_back.jed");
  ASSERT_EQ(run_cli("convert " + schedule + " --out " + csv).exit_code, 0);
  ASSERT_EQ(run_cli("convert " + csv + " --out " + back).exit_code, 0);
  const auto reloaded = io::load_schedule_xml(back);
  EXPECT_EQ(reloaded.tasks().size(), 2u);
  EXPECT_EQ(reloaded.tasks()[0].id(), "1");
  std::remove(csv.c_str());
  std::remove(back.c_str());
}

TEST(Cli, FormatsListsRegisteredParsers) {
  const auto r = run_cli("formats");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("jedule-xml"), std::string::npos);
  EXPECT_NE(r.output.find("csv"), std::string::npos);
  EXPECT_NE(r.output.find("swf"), std::string::npos);
}

TEST(Cli, ViewExecutesScript) {
  const std::string schedule = make_schedule_file();
  const std::string script = temp_path("cli_script.txt");
  const std::string snap = temp_path("cli_snap.png");
  io::write_file(script,
                 "info\n"
                 "# a comment\n"
                 "zoom 0.1 0.4\n"
                 "inspect 400 200\n"
                 "export " + snap + "\n"
                 "bogus command\n"
                 "quit\n");
  const auto r = run_cli("view " + schedule + " --script " + script);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("2 task(s)"), std::string::npos);
  EXPECT_NE(r.output.find("window [0.1, 0.4]"), std::string::npos);
  EXPECT_NE(r.output.find("wrote " + snap), std::string::npos);
  // Errors inside the loop are reported, not fatal.
  EXPECT_NE(r.output.find("error: unknown command"), std::string::npos);
  EXPECT_GT(io::read_file(snap).size(), 100u);
  std::remove(script.c_str());
  std::remove(snap.c_str());
}

TEST(Cli, RenderReadsSwfViaRegistry) {
  const std::string swf = temp_path("cli_trace.swf");
  io::write_file(swf,
                 "; MaxProcs: 16\n"
                 "1 0 0 100 4 -1 -1 4 -1 -1 1 10 1 1 1 1 -1 -1\n"
                 "2 20 5 50 8 -1 -1 8 -1 -1 1 11 1 1 1 1 -1 -1\n");
  const std::string out = temp_path("cli_trace.png");
  const auto r = run_cli("render " + swf + " --out " + out +
                         " --highlight user=11");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_GT(io::read_file(out).size(), 1000u);
  std::remove(swf.c_str());
  std::remove(out.c_str());
}

TEST(Cli, CustomColormapFile) {
  const std::string schedule = make_schedule_file();
  const std::string cmap = temp_path("cli_cmap.xml");
  io::write_file(cmap, R"(<cmap name="custom">
    <task id="computation">
      <color type="fg" rgb="000000"/><color type="bg" rgb="00ff00"/>
    </task>
  </cmap>)");
  const std::string with = temp_path("cli_with.ppm");
  const std::string without = temp_path("cli_without.ppm");
  ASSERT_EQ(run_cli("render " + schedule + " --out " + without).exit_code, 0);
  ASSERT_EQ(run_cli("render " + schedule + " --out " + with + " --cmap " +
                    cmap)
                .exit_code,
            0);
  EXPECT_NE(io::read_file(with), io::read_file(without));
  std::remove(cmap.c_str());
  std::remove(with.c_str());
  std::remove(without.c_str());
}

TEST(Cli, DemoCatalogAndAsciiOutput) {
  const auto catalog = run_cli("demo");
  EXPECT_EQ(catalog.exit_code, 0);
  EXPECT_NE(catalog.output.find("composite"), std::string::npos);
  EXPECT_NE(catalog.output.find("thunder"), std::string::npos);

  // Without --out the demo prints the ASCII view.
  const auto ascii = run_cli("demo composite");
  EXPECT_EQ(ascii.exit_code, 0);
  EXPECT_NE(ascii.output.find("cluster-0 (8 hosts)"), std::string::npos);
  EXPECT_NE(ascii.output.find("*"), std::string::npos);  // the overlap
  EXPECT_NE(ascii.output.find("legend:"), std::string::npos);
}

TEST(Cli, DemoExportsImagesAndSchedules) {
  const std::string png = temp_path("cli_demo.png");
  EXPECT_EQ(run_cli("demo mcpa --out " + png).exit_code, 0);
  EXPECT_EQ(io::read_file(png).substr(1, 3), "PNG");
  std::remove(png.c_str());

  const std::string jed = temp_path("cli_demo.jed");
  EXPECT_EQ(run_cli("demo cpa --out " + jed).exit_code, 0);
  const auto schedule = io::load_schedule_xml(jed);
  EXPECT_GT(schedule.tasks().size(), 10u);
  EXPECT_EQ(schedule.meta_value("algorithm"), "CPA");
  std::remove(jed.c_str());
}

TEST(Cli, DemoRejectsUnknownName) {
  const auto r = run_cli("demo not-a-demo");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("unknown demo"), std::string::npos);
}

TEST(Cli, ProfileChartExport) {
  const std::string schedule = make_schedule_file();
  const std::string out = temp_path("cli_profile.png");
  const auto r = run_cli("profile " + schedule + " --out " + out);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(io::read_file(out).substr(1, 3), "PNG");
  std::remove(out.c_str());
  EXPECT_EQ(run_cli("profile " + schedule).exit_code, 1);  // missing --out
}

TEST(Cli, RenderTypeFilter) {
  const std::string schedule = make_schedule_file();
  const std::string all = temp_path("cli_all.ppm");
  const std::string filtered = temp_path("cli_filtered.ppm");
  ASSERT_EQ(run_cli("render " + schedule + " --out " + all).exit_code, 0);
  ASSERT_EQ(run_cli("render " + schedule + " --out " + filtered +
                    " --types computation")
                .exit_code,
            0);
  EXPECT_NE(io::read_file(all), io::read_file(filtered));
}

}  // namespace
