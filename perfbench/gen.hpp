#pragma once

// Seeded input generators of the end-to-end benchmark. Every workload input
// is a pure function of (shape parameters, seed): the same seed writes the
// same bytes. Times are whole numbers (microsecond ticks), so every text
// format and the .jbin snapshot round-trip them exactly.

#include <cstdint>
#include <string>

namespace perfbench {

/// splitmix64: tiny, seedable, and identical on every platform (unlike the
/// std:: distributions, whose output is implementation-defined).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi] (inclusive).
  long long range(long long lo, long long hi) {
    return lo + static_cast<long long>(
                    next() % static_cast<std::uint64_t>(hi - lo + 1));
  }

 private:
  std::uint64_t s_;
};

/// What a generator wrote, echoed as one JSON line for run.py.
struct GenInfo {
  std::size_t tasks = 0;
  std::size_t edges = 0;
  long long makespan = 0;
  std::size_t bytes = 0;
  std::string json() const;
};

/// The ragged shape: 2 clusters x 2048 hosts split into 64 lanes of 64
/// hosts. Tasks of one lane follow each other in time and never overlap;
/// each takes a random-width contiguous host range inside its lane's block,
/// so composite synthesis sees many distinct range ends and finds nothing.
GenInfo write_ragged_csv(const std::string& path, std::size_t tasks,
                         std::uint64_t seed);

/// The chain shape on one cluster of `hosts` hosts: single-host tasks form
/// per-host chains, cut by a full-width barrier task every `barrier_every`
/// tasks. Each task depends on its host predecessor, or on the last barrier
/// when it is the first on its host since then; each barrier depends on the
/// latest-finishing task before it. Written as Jedule XML (`<precedence>`
/// edges) or as CSV with a `deps` column, depending on the extension.
GenInfo write_chain(const std::string& path, std::size_t tasks, int hosts,
                    std::size_t barrier_every, std::uint64_t seed);

/// A seeded serve request sequence for one client's schedule of length
/// `makespan`: ~70% tile GETs on a pan/zoom walk, ~20% render GETs, ~10%
/// appends of 100 events on cluster 0. One request per line, paths relative
/// to /schedules/{id}/:
///
///   GET <tail>          e.g. GET tile?x=3&y=-1&zoom=4
///   GETZ <tail>         the same, sent with Accept-Encoding: gzip
///   POST events <n>     followed by n event lines (engine/events.hpp)
void write_requests(const std::string& path, std::size_t count,
                    long long makespan, std::uint64_t seed);

}  // namespace perfbench
