#include "jedule/util/parallel.hpp"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <thread>
#include <utility>

#include "jedule/util/strings.hpp"

namespace jedule::util {

int hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

int resolve_threads(int requested) {
  if (requested >= 1) return requested;
  if (const char* env = std::getenv("JEDULE_THREADS")) {
    if (const auto n = parse_int(env); n && *n >= 1 && *n <= kMaxThreads) {
      return static_cast<int>(*n);
    }
  }
  return hardware_threads();
}

WorkerPool::WorkerPool(int threads, std::size_t queue_capacity)
    : capacity_(queue_capacity) {
  const int n = threads < 1 ? 1 : threads;
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

WorkerPool::~WorkerPool() { stop(); }

bool WorkerPool::try_submit(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ || queue_.size() >= capacity_) return false;
    queue_.push_back(std::move(job));
  }
  wake_.notify_one();
  return true;
}

void WorkerPool::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] { return queue_.empty() && running_ == 0; });
}

void WorkerPool::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    queue_.clear();
  }
  wake_.notify_all();
  for (auto& t : workers_) {
    if (t.joinable()) t.join();
  }
  idle_.notify_all();
}

std::size_t WorkerPool::queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

void WorkerPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_) return;
      job = std::move(queue_.front());
      queue_.pop_front();
      ++running_;
    }
    try {
      job();
    } catch (...) {
      // A job that throws must not take its worker down with it.
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --running_;
      if (queue_.empty() && running_ == 0) idle_.notify_all();
    }
  }
}

namespace detail {

// The compute pool: started by the first fan-out that wants a helper,
// never resized or stopped, unbounded. Leaked on purpose: at exit its idle
// workers stay parked instead of being joined behind static destructors.
static WorkerPool& shared_pool() {
  static auto* pool = new WorkerPool(hardware_threads(), std::size_t(-1));
  return *pool;
}

// One fan-out: pieces [0, published) exist and [0, next) are claimed. A
// piece is claimed in index order, under `mu`, by the thread that runs it,
// so a thread that finds nothing left to claim knows every piece has
// started somewhere and only waits for the running ones.
struct Fanout {
  // Helpers beyond the pool size would only queue behind the others.
  Fanout(std::size_t helpers_wanted, bool drop_after_error)
      : max_helpers(std::min<std::size_t>(helpers_wanted, hardware_threads())),
        drop_after_error(drop_after_error) {}

  std::mutex mu;
  std::condition_variable settled;  // running dropped to zero
  // parallel_for runs (*body)(i); a TaskGroup (null body) runs its
  // unclaimed jobs oldest first.
  const std::function<void(std::size_t)>* body = nullptr;
  std::deque<std::function<void()>> jobs;
  std::size_t published = 0, next = 0, running = 0;
  std::size_t helpers = 0;  // posted to the pool and not yet returned
  const std::size_t max_helpers;
  const bool drop_after_error;
  std::size_t error_index = std::size_t(-1);
  std::exception_ptr error;

  // Claims and runs pieces until none is left to claim.
  void work(bool helper) {
    std::unique_lock<std::mutex> lock(mu);
    while (true) {
      if (error != nullptr && drop_after_error) {
        jobs.clear();
        next = published;
      }
      if (next == published) break;
      const std::size_t i = next++;
      std::function<void()> job;
      if (body == nullptr) {
        job = std::move(jobs.front());
        jobs.pop_front();
      }
      ++running;
      lock.unlock();
      std::exception_ptr failure;
      try {
        body != nullptr ? (*body)(i) : job();
      } catch (...) {
        failure = std::current_exception();
      }
      lock.lock();
      if (failure != nullptr && i < error_index) {
        error_index = i;
        error = failure;
      }
      if (--running == 0) settled.notify_all();
    }
    if (helper) --helpers;
  }

  // Posts helpers until one is out per unclaimed piece, up to max_helpers.
  // A helper holds the state, so one that starts after the fan-out has
  // finished finds nothing to claim and returns at once.
  static void recruit(const std::shared_ptr<Fanout>& self) {
    std::size_t post = 0;
    {
      std::lock_guard<std::mutex> lock(self->mu);
      const std::size_t want =
          std::min(self->max_helpers, self->published - self->next);
      if (want > self->helpers) post = want - self->helpers;
      self->helpers += post;
    }
    for (; post > 0; --post) {
      shared_pool().try_submit([self] { self->work(true); });
    }
  }

  // The caller's side: runs what is unclaimed, waits for what is running,
  // then rethrows (and clears) the lowest-index error.
  void settle() {
    work(false);
    std::unique_lock<std::mutex> lock(mu);
    settled.wait(lock, [this] { return running == 0; });
    const std::exception_ptr e = std::exchange(error, nullptr);
    error_index = std::size_t(-1);
    if (e != nullptr) std::rethrow_exception(e);
  }
};

}  // namespace detail

void parallel_for(std::size_t n, int threads,
                  const std::function<void(std::size_t)>& fn) {
  const std::size_t workers =
      std::min<std::size_t>(n, static_cast<std::size_t>(std::max(threads, 1)));
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  auto state = std::make_shared<detail::Fanout>(workers - 1,
                                                /*drop_after_error=*/false);
  state->body = &fn;
  state->published = n;
  detail::Fanout::recruit(state);
  state->settle();  // the calling thread is worker 0
}

TaskGroup::TaskGroup(int threads)
    : state_(std::make_shared<detail::Fanout>(
          static_cast<std::size_t>(threads > 1 ? threads : 0),
          /*drop_after_error=*/true)) {}

TaskGroup::~TaskGroup() {
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->jobs.clear();
  state_->next = state_->published;
  state_->settled.wait(lock, [this] { return state_->running == 0; });
}

void TaskGroup::submit(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->jobs.push_back(std::move(job));
    ++state_->published;
  }
  if (state_->max_helpers == 0) {
    state_->work(false);  // inline: runs the job now, or drops it
  } else {
    detail::Fanout::recruit(state_);
  }
}

void TaskGroup::wait() { state_->settle(); }

bool TaskGroup::failed() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->error != nullptr;
}

}  // namespace jedule::util
