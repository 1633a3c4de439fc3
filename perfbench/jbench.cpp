// jbench — the C++ half of the end-to-end benchmark (run.py calls it).
//
//   jbench gen ragged  --tasks N --seed S --out F.csv
//   jbench gen chain   --tasks N --hosts H --barrier K --seed S --out F.{xml,csv}
//   jbench gen requests --count N --makespan M --seed S --out F.req
//   jbench check-png FILE...       every file must decode via render::decode_png
//   jbench trace --input F [--window A:B] --requests F.req --threads T
//                --spans OUT.csv --scratch DIR
//                                  traced library-path replay (trace.hpp)
//   jbench build-info              NDEBUG state, SIMD kernel, nproc (JSON)
//
// Every subcommand prints one JSON line on success and exits 0; errors go
// to stderr with exit code 1.

#include <cstdint>
#include <exception>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>

#include "gen.hpp"
#include "jedule/io/file.hpp"
#include "jedule/render/kernels.hpp"
#include "jedule/render/png.hpp"
#include "trace.hpp"

namespace {

/// The `--name value` pairs after the subcommand words.
struct Flags {
  std::map<std::string, std::string> values;

  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      const std::string a = argv[i];
      if (a.rfind("--", 0) != 0 || i + 1 >= argc) {
        throw std::runtime_error("expected --name value, got '" + a + "'");
      }
      values[a.substr(2)] = argv[++i];
    }
  }
  std::string str(const std::string& name) const {
    const auto it = values.find(name);
    if (it == values.end()) throw std::runtime_error("missing --" + name);
    return it->second;
  }
  std::string str_or(const std::string& name, const std::string& dflt) const {
    const auto it = values.find(name);
    return it == values.end() ? dflt : it->second;
  }
  long long num(const std::string& name) const { return std::stoll(str(name)); }
};

#ifdef NDEBUG
constexpr const char* kBuildType = "release";
#else
constexpr const char* kBuildType = "debug";
#endif

int run(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  if (cmd == "gen" && argc > 2) {
    const std::string kind = argv[2];
    const Flags f(argc, argv, 3);
    const auto seed = static_cast<std::uint64_t>(f.num("seed"));
    perfbench::GenInfo info;
    if (kind == "ragged") {
      info = perfbench::write_ragged_csv(
          f.str("out"), static_cast<std::size_t>(f.num("tasks")), seed);
    } else if (kind == "chain") {
      info = perfbench::write_chain(
          f.str("out"), static_cast<std::size_t>(f.num("tasks")),
          static_cast<int>(f.num("hosts")),
          static_cast<std::size_t>(f.num("barrier")), seed);
    } else if (kind == "requests") {
      perfbench::write_requests(f.str("out"),
                                static_cast<std::size_t>(f.num("count")),
                                f.num("makespan"), seed);
      std::cout << "{\"requests\": " << f.num("count") << "}\n";
      return 0;
    } else {
      throw std::runtime_error("unknown generator '" + kind + "'");
    }
    std::cout << info.json() << "\n";
    return 0;
  }
  if (cmd == "check-png") {
    std::size_t pixels = 0;
    for (int i = 2; i < argc; ++i) {
      const auto fb = jedule::render::decode_png(jedule::io::read_file(argv[i]));
      pixels += static_cast<std::size_t>(fb.width()) *
                static_cast<std::size_t>(fb.height());
    }
    std::cout << "{\"decoded\": " << argc - 2 << ", \"pixels\": " << pixels
              << "}\n";
    return 0;
  }
  if (cmd == "build-info") {
    std::cout << "{\"build_type\": \"" << kBuildType << "\", \"simd\": \""
              << jedule::render::kernels::active().name
              << "\", \"nproc\": " << std::thread::hardware_concurrency()
              << "}\n";
    return 0;
  }
  if (cmd == "trace") {
    const Flags f(argc, argv, 2);
    perfbench::TraceConfig cfg;
    cfg.input = f.str("input");
    cfg.window = f.str_or("window", "");
    cfg.requests = f.str("requests");
    cfg.spans_out = f.str("spans");
    cfg.threads = static_cast<int>(f.num("threads"));
    cfg.scratch = f.str("scratch");
    std::cout << perfbench::run_trace(cfg) << "\n";
    return 0;
  }
  std::cerr << "usage: jbench gen|check-png|build-info|trace ...\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "jbench: " << e.what() << "\n";
    return 1;
  }
}
