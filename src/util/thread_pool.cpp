#include "util/thread_pool.h"

#include <algorithm>

#include "util/check.h"

namespace bkc {

namespace {

// Flag marking threads that are executing a pool task; parallel_for
// consults it to run nested parallel regions inline.
thread_local bool t_on_worker = false;

// Thread count for parameterless parallel regions (see
// current_num_threads() in the header).
thread_local int t_num_threads = 1;

}  // namespace

ThreadPool::ThreadPool(int num_workers) {
  check(num_workers >= 1, "ThreadPool: num_workers must be >= 1");
  workers_.reserve(static_cast<std::size_t>(num_workers));
  for (int w = 0; w < num_workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  t_on_worker = true;
  std::uint64_t seen_generation = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, [&] {
        return stopping_ || generation_ != seen_generation;
      });
      if (stopping_) return;
      seen_generation = generation_;
    }
    drain();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--active_workers_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::drain() noexcept {
  // run() publishes task_ and num_tasks_ under mutex_ before any thread
  // enters drain(), and changes them only after every worker left it.
  for (int t = next_task_.fetch_add(1); t < num_tasks_;
       t = next_task_.fetch_add(1)) {
    try {
      (*task_)(t);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!error_ || t < error_task_) {
        error_task_ = t;
        error_ = std::current_exception();
      }
    }
  }
}

void ThreadPool::run(int num_tasks, FunctionRef<void(int)> task) {
  check(num_tasks >= 0, "ThreadPool::run: num_tasks must be >= 0");
  check(!t_on_worker,
        "ThreadPool::run: re-entrant call from a worker thread");
  if (num_tasks == 0) return;
  // Concurrent callers (e.g. two user threads both inside
  // classify_batch) take turns on the pool; workers never call run(),
  // so this cannot deadlock.
  std::lock_guard<std::mutex> run_lock(run_mutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    task_ = &task;
    num_tasks_ = num_tasks;
    next_task_ = 0;
    active_workers_ = num_workers();
    ++generation_;
  }
  start_cv_.notify_all();
  {
    // The caller's share runs as a worker's would: nested regions
    // inline, parameterless regions serial.
    ScopedNumThreads serial(1);
    t_on_worker = true;
    drain();
    t_on_worker = false;
  }
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] { return active_workers_ == 0; });
  task_ = nullptr;
  // Deterministic propagation: the lowest-numbered failing task wins,
  // independent of execution timing. Taking the slot leaves it empty
  // for the next run().
  if (std::exception_ptr error = std::exchange(error_, nullptr)) {
    std::rethrow_exception(error);
  }
}

bool ThreadPool::on_worker_thread() { return t_on_worker; }

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(std::max(
      1, static_cast<int>(std::thread::hardware_concurrency()) - 1));
  return pool;
}

void parallel_for(
    std::int64_t total, int num_threads,
    FunctionRef<void(std::int64_t begin, std::int64_t end)> chunk) {
  check(num_threads >= 1, "parallel_for: num_threads must be >= 1");
  if (total <= 0) return;
  const int chunks =
      static_cast<int>(std::min<std::int64_t>(num_threads, total));
  if (chunks <= 1 || ThreadPool::on_worker_thread()) {
    chunk(0, total);
    return;
  }
  ThreadPool::shared().run(chunks, [&](int c) {
    const ChunkBounds bounds = chunk_bounds(total, chunks, c);
    chunk(bounds.begin, bounds.end);
  });
}

ChunkBounds chunk_bounds(std::int64_t total, int chunks, int c) {
  check(total >= 0, "chunk_bounds: total must be >= 0");
  check(chunks >= 1, "chunk_bounds: chunks must be >= 1");
  check(c >= 0 && c < chunks, "chunk_bounds: chunk index out of range");
  // Near-equal contiguous chunks; boundaries depend only on
  // (total, chunks), which is what makes the partition deterministic.
  // base <= total / chunks and c < chunks keep every product and sum
  // below INT64_MAX, so this holds for totals the naive
  // `total * c / chunks` formula would overflow on.
  const std::int64_t base = total / chunks;
  const std::int64_t extra = total % chunks;
  const std::int64_t begin = c * base + std::min<std::int64_t>(c, extra);
  const std::int64_t end = begin + base + (c < extra ? 1 : 0);
  return {begin, end};
}

int current_num_threads() { return t_num_threads; }

ScopedNumThreads::ScopedNumThreads(int num_threads)
    : previous_(t_num_threads) {
  check(num_threads >= 1, "ScopedNumThreads: num_threads must be >= 1");
  t_num_threads = num_threads;
}

ScopedNumThreads::~ScopedNumThreads() { t_num_threads = previous_; }

}  // namespace bkc
