#pragma once

// Threading helpers. The design constraint is determinism: callers
// partition work into indexed pieces, workers may claim pieces in any
// interleaving, and results are merged by index, so the output never
// depends on the thread count or on scheduling. Every fan-out runs on one
// lazily started, process-wide WorkerPool (DESIGN.md §4n).

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace jedule::util {

/// Upper bound on a thread count from any source: a flag or query value
/// above it is rejected, an environment value above it is ignored.
inline constexpr int kMaxThreads = 256;

/// std::thread::hardware_concurrency(), never less than 1.
int hardware_threads();

/// Resolves a requested worker count: `requested` >= 1 is used as-is;
/// anything else falls back to JEDULE_THREADS when it holds an integer in
/// [1, kMaxThreads], and to hardware_threads() otherwise.
int resolve_threads(int requested);

/// Fixed pool of long-lived worker threads over a bounded job queue, the
/// only class that owns compute threads. try_submit() refuses instead of
/// blocking when the queue is full, so `jedule serve` (which runs
/// connections on an instance of its own) can shed load with HTTP 429.
/// Jobs must not throw; escaped exceptions are swallowed.
class WorkerPool {
 public:
  /// Spawns max(1, threads) workers; at most `queue_capacity` jobs wait.
  WorkerPool(int threads, std::size_t queue_capacity);

  /// stop()s, discarding jobs still queued.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Enqueues `job` unless the pool is stopping or the queue is at
  /// capacity; returns whether the job was accepted.
  bool try_submit(std::function<void()> job);

  /// Blocks until every queued *and* running job has finished (new
  /// submissions are still accepted while draining).
  void drain();

  /// Rejects new jobs, finishes the running ones, discards the queue and
  /// joins the workers. Idempotent.
  void stop();

  int threads() const { return static_cast<int>(workers_.size()); }
  std::size_t queued() const;

 private:
  void worker_loop();

  mutable std::mutex mu_;
  std::condition_variable wake_;   // workers: job available or stopping
  std::condition_variable idle_;   // drain(): queue empty and nothing running
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  std::size_t capacity_;
  std::size_t running_ = 0;
  bool stopping_ = false;
};

namespace detail { struct Fanout; }  // shared by parallel_for and TaskGroup

/// Runs fn(i) for every i in [0, n) on up to `threads` threads: the caller
/// is worker 0, helpers come from the shared pool. Pieces are claimed in
/// index order, so uneven pieces balance. Runs inline when threads <= 1 or
/// n <= 1. Every index runs; the lowest failing index's exception is
/// rethrown on the caller once no piece is running.
void parallel_for(std::size_t n, int threads,
                  const std::function<void(std::size_t)>& fn);

/// Jobs submitted one by one while the caller works on (the chunked readers
/// scan while earlier chunks parse), claimed in submission order by up to
/// `threads` pool helpers and by wait(); at threads <= 1 each runs inline
/// in submit(). After a failure, unclaimed jobs are dropped, and wait()
/// rethrows the lowest-index error, so it does not depend on timing.
class TaskGroup {
 public:
  explicit TaskGroup(int threads);
  /// Drops the jobs not yet claimed and waits for the running ones.
  ~TaskGroup();
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void submit(std::function<void()> job);
  /// Runs the unclaimed jobs on this thread, waits for the running ones
  /// and rethrows the deterministic error (clearing it).
  void wait();
  bool failed() const;

 private:
  std::shared_ptr<detail::Fanout> state_;
};

}  // namespace jedule::util
