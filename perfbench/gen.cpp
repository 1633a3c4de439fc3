#include "gen.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {
namespace {

const char* const kTypes[] = {"computation", "transfer", "io", "sync"};

/// Buffered writer: appends to a string and flushes in large blocks.
class Out {
 public:
  explicit Out(const std::string& path) : f_(std::fopen(path.c_str(), "wb")) {
    if (f_ == nullptr) throw std::runtime_error("cannot write " + path);
    buf_.reserve(kBlock + 4096);
  }
  ~Out() {
    if (f_ != nullptr) std::fclose(f_);
  }
  Out(const Out&) = delete;
  Out& operator=(const Out&) = delete;

  Out& operator<<(const std::string& s) { return put(s.data(), s.size()); }
  Out& operator<<(const char* s) { return put(s, std::char_traits<char>::length(s)); }
  Out& operator<<(long long v) {
    char tmp[24];
    const int n = std::snprintf(tmp, sizeof(tmp), "%lld", v);
    return put(tmp, static_cast<std::size_t>(n));
  }

  /// Flushes, closes and returns the byte count; throws on a failed write.
  std::size_t close() {
    flush();
    const bool ok = std::fclose(f_) == 0;
    f_ = nullptr;
    if (!ok) throw std::runtime_error("write failed");
    return written_;
  }

 private:
  static constexpr std::size_t kBlock = 1u << 20;
  Out& put(const char* p, std::size_t n) {
    buf_.append(p, n);
    if (buf_.size() >= kBlock) flush();
    return *this;
  }
  void flush() {
    if (!buf_.empty() &&
        std::fwrite(buf_.data(), 1, buf_.size(), f_) != buf_.size()) {
      throw std::runtime_error("write failed");
    }
    written_ += buf_.size();
    buf_.clear();
  }

  std::FILE* f_;
  std::string buf_;
  std::size_t written_ = 0;
};

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

std::string GenInfo::json() const {
  return "{\"tasks\": " + std::to_string(tasks) +
         ", \"edges\": " + std::to_string(edges) +
         ", \"makespan\": " + std::to_string(makespan) +
         ", \"bytes\": " + std::to_string(bytes) + "}";
}

GenInfo write_ragged_csv(const std::string& path, std::size_t tasks,
                         std::uint64_t seed) {
  constexpr int kClusters = 2;
  constexpr int kHosts = 2048;
  constexpr int kBlock = 64;
  constexpr int kLanes = kClusters * kHosts / kBlock;
  Rng rng(seed);
  Out out(path);
  for (int c = 0; c < kClusters; ++c) {
    out << "!cluster," << c << ",cluster-" << c << "," << kHosts << "\n";
  }
  out << "task_id,type,start,end,allocs\n";
  std::vector<long long> lane_end(kLanes, 0);
  GenInfo info;
  for (std::size_t i = 0; i < tasks; ++i) {
    const int lane = static_cast<int>(rng.range(0, kLanes - 1));
    const int cluster = lane / (kHosts / kBlock);
    const int base = (lane % (kHosts / kBlock)) * kBlock;
    const long long width = rng.range(1, kBlock);
    const long long first = base + rng.range(0, kBlock - width);
    const long long start = lane_end[lane] + rng.range(0, 20);
    const long long end = start + rng.range(10, 200);
    lane_end[lane] = end;
    info.makespan = std::max(info.makespan, end);
    out << "t" << static_cast<long long>(i) << "," << kTypes[rng.range(0, 3)]
        << "," << start << "," << end << "," << cluster << ":" << first << "-"
        << first + width - 1 << "\n";
  }
  info.tasks = tasks;
  info.bytes = out.close();
  return info;
}

GenInfo write_chain(const std::string& path, std::size_t tasks, int hosts,
                    std::size_t barrier_every, std::uint64_t seed) {
  const bool xml = ends_with(path, ".xml");
  if (!xml && !ends_with(path, ".csv")) {
    throw std::runtime_error("chain output must end in .xml or .csv");
  }
  Rng rng(seed);
  Out out(path);
  if (xml) {
    out << "<jedule version=\"1.0\">\n<platform><cluster id=\"0\" "
           "name=\"cluster-0\" hosts=\""
        << static_cast<long long>(hosts) << "\"/></platform>\n<node_infos>\n";
  } else {
    out << "!cluster,0,cluster-0," << static_cast<long long>(hosts)
        << "\ntask_id,type,start,end,allocs,deps\n";
  }
  // Per host: end time and id of the last task since the latest barrier
  // (-1: none yet, so the next task hangs off the barrier).
  std::vector<long long> host_end(static_cast<std::size_t>(hosts), 0);
  std::vector<long long> host_last(static_cast<std::size_t>(hosts), -1);
  long long barrier = -1;      // id of the latest barrier task
  long long barrier_end = 0;   // its end time
  long long latest = -1;       // latest-finishing task since the barrier
  long long latest_end = 0;
  std::string precedences;     // XML edges, written after the tasks
  GenInfo info;
  auto edge = [&](long long src, long long dst, std::string* csv_deps) {
    if (src < 0) return;
    ++info.edges;
    if (xml) {
      precedences += "<precedence src=\"t" + std::to_string(src) +
                     "\" dst=\"t" + std::to_string(dst) + "\"/>\n";
    } else {
      *csv_deps = std::to_string(src);
      csv_deps->insert(csv_deps->begin(), 't');
    }
  };
  auto emit = [&](long long id, const char* type, long long start,
                  long long end, long long first, long long count,
                  const std::string& deps) {
    if (xml) {
      out << "<node_statistics><node_property name=\"id\" value=\"t" << id
          << "\"/><node_property name=\"type\" value=\"" << type
          << "\"/><node_property name=\"start_time\" value=\"" << start
          << "\"/><node_property name=\"end_time\" value=\"" << end
          << "\"/><configuration><conf_property name=\"cluster_id\" "
             "value=\"0\"/><conf_property name=\"host_nb\" value=\""
          << count << "\"/><host_lists><hosts start=\"" << first
          << "\" nb=\"" << count
          << "\"/></host_lists></configuration></node_statistics>\n";
    } else {
      out << "t" << id << "," << type << "," << start << "," << end << ",0:"
          << first << "-" << first + count - 1 << "," << deps << "\n";
    }
  };
  for (std::size_t i = 0; i < tasks; ++i) {
    const auto id = static_cast<long long>(i);
    std::string deps;
    if (barrier_every > 0 && (i + 1) % barrier_every == 0) {
      const long long start = latest_end + rng.range(1, 20);
      const long long end = start + rng.range(5, 50);
      edge(latest >= 0 ? latest : barrier, id, &deps);
      emit(id, "sync", start, end, 0, hosts, deps);
      barrier = id;
      barrier_end = end;
      latest = -1;
      std::fill(host_last.begin(), host_last.end(), -1);
      std::fill(host_end.begin(), host_end.end(), end);
      continue;
    }
    const auto h = static_cast<std::size_t>(rng.range(0, hosts - 1));
    const long long start = std::max(host_end[h], barrier_end) + rng.range(0, 30);
    const long long end = start + rng.range(10, 400);
    edge(host_last[h] >= 0 ? host_last[h] : barrier, id, &deps);
    emit(id, kTypes[rng.range(0, 2)], start, end,
         static_cast<long long>(h), 1, deps);
    host_end[h] = end;
    host_last[h] = id;
    if (end > latest_end) {
      latest_end = end;
      latest = id;
    }
    info.makespan = std::max(info.makespan, end);
  }
  info.makespan = std::max(info.makespan, barrier_end);
  if (xml) {
    out << "</node_infos>\n<precedences>\n" << precedences
        << "</precedences>\n</jedule>\n";
  }
  info.tasks = tasks;
  info.bytes = out.close();
  return info;
}

void write_requests(const std::string& path, std::size_t count,
                    long long makespan, std::uint64_t seed) {
  Rng rng(seed);
  Out out(path);
  // Every block of 10 requests holds exactly 7 tiles, 2 renders and 1
  // append in seeded order, so the mix (and with it the latency median)
  // does not drift with the seed. Tiles follow a pan/zoom walk: pans keep
  // their direction (bouncing off the edges), zooms jump to a uniformly
  // random level and column, so tiles repeat only when a pan turns back.
  // Render variants come from a small pool, so some of them repeat
  // (artifact-cache hits).
  const char kBlock[] = "TTTTTTTRRA";
  char kinds[sizeof(kBlock)] = {};
  long long zoom = 3;
  long long x = 0;
  long long dir = 1;
  long long y = -1;
  long long appended = 0;  // events appended so far (unique ids, times)
  const long long widths[] = {800, 1000, 1200};
  for (std::size_t i = 0; i < count; ++i) {
    if (i % 10 == 0) {
      std::copy(std::begin(kBlock), std::end(kBlock), kinds);
      for (int k = 9; k > 0; --k) std::swap(kinds[k], kinds[rng.range(0, k)]);
    }
    const char kind = kinds[i % 10];
    if (kind == 'T') {
      const long long step = rng.range(0, 9);
      if (step < 7) {
        if (x + dir < 0 || x + dir >= (1LL << zoom)) dir = -dir;
      } else if (step < 9) {
        zoom = rng.range(3, 5);
        x = rng.range(0, (1LL << zoom) - 1);
      } else {
        y = y < 0 ? 0 : -1;
      }
      if (step < 7) x += dir;
      out << "GET tile?x=" << x << "&y=" << y << "&zoom=" << zoom << "\n";
    } else if (kind == 'R') {
      const long long variant = rng.range(0, 5);
      // Windows start on a 1/16 grid and cover 1/16 or 1/8 of the makespan.
      const long long w0 = makespan * rng.range(0, 13) / 16;
      const long long w1 = w0 + makespan * rng.range(1, 2) / 16;
      if (variant == 5) {
        out << "GETZ render.svg?window=" << w0 << ":" << w0 + makespan / 64
            << "\n";
      } else if (variant < 3) {
        out << "GET render.png?width=" << widths[variant] << "\n";
      } else {
        out << "GET render.png?width=1000&window=" << w0 << ":" << w1 << "\n";
      }
    } else {
      constexpr long long kEvents = 100;
      out << "POST events " << kEvents << "\n";
      for (long long e = 0; e < kEvents; ++e, ++appended) {
        const long long width = rng.range(1, 64);
        const long long first = rng.range(0, 64 - width);
        const long long start = makespan + 10 * appended;
        out << "ev" << appended << "," << kTypes[rng.range(0, 3)] << ","
            << start << "," << start + rng.range(5, 40) << ",0:" << first
            << "-" << first + width - 1 << "\n";
      }
    }
  }
  out.close();
}

}  // namespace perfbench
