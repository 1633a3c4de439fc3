// The shared compute pool behind util::parallel_for and util::TaskGroup:
// TaskGroup's ordering and error contract at every thread count, nested
// fan-out that must finish while every pool worker is busy, and the bound
// on how many threads a fan-out may add to the process.

#include "jedule/util/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "jedule/io/csv.hpp"
#include "jedule/io/ingest.hpp"
#include "jedule/model/builder.hpp"
#include "jedule/model/task_index.hpp"
#include "jedule/util/error.hpp"
#include "jedule/util/rng.hpp"

namespace jedule::util {
namespace {

const int kThreadCounts[] = {1, 2, 8};

// The "Threads:" line of /proc/self/status: every live thread of this
// process, pool workers included.
int process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

// Holds every worker of the shared pool (plus one thread of its own) in
// pieces that block until destruction, so a fan-out started meanwhile gets
// no helper and has to finish on its calling thread.
class SaturatedPool {
 public:
  SaturatedPool()
      : holders_(static_cast<std::size_t>(hardware_threads()) + 1),
        thread_([this] {
          parallel_for(holders_, static_cast<int>(holders_),
                       [this](std::size_t) {
                         std::unique_lock<std::mutex> lock(mu_);
                         ++holding_;
                         cv_.notify_all();
                         cv_.wait(lock, [this] { return released_; });
                       });
        }) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return holding_ == holders_; });
  }
  ~SaturatedPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  const std::size_t holders_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t holding_ = 0;
  bool released_ = false;
  std::thread thread_;
};

// --- TaskGroup contract --------------------------------------------------

TEST(TaskGroup, ReportsLowestIndexError) {
  for (int threads : kThreadCounts) {
    TaskGroup group(threads);
    std::atomic<int> ran{0};
    for (int i = 0; i < 16; ++i) {
      group.submit([i, &ran] {
        ++ran;
        if (i == 11) throw ParseError("late failure");
        if (i == 5) throw ParseError("early failure");
      });
    }
    try {
      group.wait();
      FAIL() << "expected ParseError at threads=" << threads;
    } catch (const ParseError& e) {
      EXPECT_STREQ(e.what(), "early failure") << "threads=" << threads;
    }
    EXPECT_FALSE(group.failed());  // wait() rethrew and reset the state
    EXPECT_GE(ran.load(), 6);
  }
}

TEST(TaskGroup, RunsEverythingWithoutErrors) {
  for (int threads : kThreadCounts) {
    TaskGroup group(threads);
    std::atomic<int> sum{0};
    for (int i = 0; i < 100; ++i) {
      group.submit([i, &sum] { sum += i; });
    }
    group.wait();
    EXPECT_FALSE(group.failed());
    EXPECT_EQ(sum.load(), 4950) << "threads=" << threads;
  }
}

TEST(TaskGroup, RunsInlineAtOneThread) {
  TaskGroup group(1);
  const auto caller = std::this_thread::get_id();
  std::vector<int> order;
  group.submit([&] {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(0);
  });
  EXPECT_EQ(order, std::vector<int>{0});  // ran inside submit()
  group.submit([&] {
    order.push_back(1);
    throw ParseError("inline failure");
  });
  EXPECT_TRUE(group.failed());
  group.submit([&] { order.push_back(2); });  // dropped after the failure
  EXPECT_THROW(group.wait(), ParseError);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(TaskGroup, DropsUnclaimedJobsAfterAFailure) {
  // With the pool held, nothing is claimed before wait(), which runs job 0
  // on this thread, sees it fail and drops the rest.
  const SaturatedPool held;
  TaskGroup group(4);
  std::atomic<int> ran{0};
  group.submit([&] {
    ++ran;
    throw ParseError("first");
  });
  for (int i = 0; i < 8; ++i) group.submit([&] { ++ran; });
  EXPECT_THROW(group.wait(), ParseError);
  EXPECT_EQ(ran.load(), 1);
}

TEST(TaskGroup, DestructorDropsUnclaimedJobs) {
  std::atomic<int> ran{0};
  {
    const SaturatedPool held;
    TaskGroup group(4);
    for (int i = 0; i < 8; ++i) group.submit([&] { ++ran; });
  }  // no wait(): the group drops its jobs before the pool is released
  EXPECT_EQ(ran.load(), 0);
}

// --- Nested fan-out --------------------------------------------------------

void nested_parallel_for() {
  constexpr std::size_t kOuter = 8, kInner = 64;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  parallel_for(kOuter, 4, [&](std::size_t o) {
    parallel_for(kInner, 4, [&](std::size_t i) { ++hits[o * kInner + i]; });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(PoolNesting, ParallelForInsideParallelFor) {
  nested_parallel_for();
  const SaturatedPool held;
  nested_parallel_for();
}

std::string csv_fixture(int tasks) {
  std::string text =
      "!cluster,0,alpha,32\n"
      "task_id,type,start,end,allocs\n";
  for (int i = 0; i < tasks; ++i) {
    text += "t" + std::to_string(i) + (i % 3 ? ",compute," : ",transfer,") +
            std::to_string(i) + "," + std::to_string(i + 2) + ",0:" +
            std::to_string(i % 28) + "-" + std::to_string(i % 28 + 3) + "\n";
  }
  return text;
}

void chunked_csv_inside_pieces(const std::string& text,
                               const std::string& serial) {
  io::IngestOptions opt;
  opt.threads = 4;
  opt.min_parallel_bytes = 1;
  opt.target_chunk_bytes = 256;
  constexpr std::size_t kPieces = 6;
  std::vector<std::string> bytes(kPieces);
  std::vector<io::IngestStats> stats(kPieces);
  parallel_for(kPieces, 4, [&](std::size_t p) {
    io::TextSource src(text);
    bytes[p] = io::write_schedule_csv(
        io::read_schedule_csv_chunked(src, opt, &stats[p]));
  });
  for (std::size_t p = 0; p < kPieces; ++p) {
    EXPECT_EQ(bytes[p], serial) << "piece " << p;
    EXPECT_TRUE(stats[p].parallel) << "piece " << p;
    EXPECT_GT(stats[p].chunks, 1u) << "piece " << p;
  }
}

TEST(PoolNesting, ChunkedCsvParseInsidePieces) {
  const std::string text = csv_fixture(400);
  const std::string serial =
      io::write_schedule_csv(io::read_schedule_csv(text));
  chunked_csv_inside_pieces(text, serial);
  const SaturatedPool held;
  chunked_csv_inside_pieces(text, serial);
}

model::Schedule index_fixture() {
  // More than two collection blocks of the threaded TaskIndex build, so
  // its segment pieces wait on the latch.
  Rng rng(5);
  model::ScheduleBuilder b;
  b.cluster(0, "c0", 16).cluster(1, "c1", 16);
  for (int i = 0; i < 70000; ++i) {
    const double s = rng.uniform(0.0, 100.0);
    b.task(std::to_string(i), i % 2 ? "computation" : "transfer", s,
           s + rng.uniform(0.0, 8.0))
        .on(i % 2, static_cast<int>(rng.uniform_int(0, 12)), 2);
  }
  return b.build();
}

void task_index_inside_pieces(const model::Schedule& s,
                              const model::TaskIndex& serial) {
  constexpr std::size_t kPieces = 3;
  std::vector<std::vector<model::TaskIndex::FlatCluster>> flat(kPieces);
  std::vector<std::uint64_t> hashes(kPieces);
  parallel_for(kPieces, 3, [&](std::size_t p) {
    const model::TaskIndex threaded(s, 4);
    hashes[p] = threaded.content_hash();
    flat[p] = threaded.flatten();
  });
  const auto expect = serial.flatten();
  for (std::size_t p = 0; p < kPieces; ++p) {
    EXPECT_EQ(hashes[p], serial.content_hash()) << "piece " << p;
    ASSERT_EQ(flat[p].size(), expect.size());
    for (std::size_t c = 0; c < expect.size(); ++c) {
      EXPECT_EQ(flat[p][c].cluster_id, expect[c].cluster_id);
      EXPECT_EQ(flat[p][c].max_end, expect[c].max_end);
      EXPECT_TRUE(std::equal(
          expect[c].entries.begin(), expect[c].entries.end(),
          flat[p][c].entries.begin(), flat[p][c].entries.end(),
          [](const model::TaskIndex::Entry& x,
             const model::TaskIndex::Entry& y) {
            return x.begin == y.begin && x.end == y.end &&
                   x.host_start == y.host_start &&
                   x.host_end == y.host_end && x.task == y.task;
          }))
          << "piece " << p << " cluster " << c;
    }
  }
}

TEST(PoolNesting, TaskIndexBuiltInsidePieces) {
  const model::Schedule s = index_fixture();
  const model::TaskIndex serial(s, 1);
  task_index_inside_pieces(s, serial);
  const SaturatedPool held;
  task_index_inside_pieces(s, serial);
}

// --- Thread bound ----------------------------------------------------------

TEST(PoolBound, FanOutAddsAtMostThePoolWorkers) {
  // ThreadSanitizer starts a background thread of its own along with the
  // process's first extra thread; let that happen before the baseline.
  std::thread([] {}).join();
  const int baseline = process_threads();
  ASSERT_GT(baseline, 0);
  const int hw = hardware_threads();
  std::atomic<int> peak{0};
  parallel_for(static_cast<std::size_t>(4 * hw), 4 * hw, [&](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const int now = process_threads();
    int seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
  });
  EXPECT_LE(peak.load(), baseline + hw);
  // A later fan-out reuses the same workers.
  const int after = process_threads();
  parallel_for(64, 4 * hw, [](std::size_t) {});
  EXPECT_EQ(process_threads(), after);
}

}  // namespace
}  // namespace jedule::util
