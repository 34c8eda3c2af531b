#pragma once
// Deterministic multi-core execution: a fixed-size worker pool plus the
// parallel_for helper every parallel hot path in bkc goes through.
//
// Design rules (the determinism guarantee the test suite enforces):
//   * parallel_for splits [0, total) into `num_threads` contiguous
//     chunks. Chunk boundaries are a pure function of
//     (total, num_threads); which thread runs a chunk is not, and
//     results never depend on it.
//   * No cross-chunk accumulation inside parallel regions. Callers write
//     results into disjoint, preallocated slots and reduce serially in
//     index order afterwards, so outputs are bit-identical to the serial
//     path at every thread count.
//   * Nested parallel regions run inline on the calling worker (no
//     oversubscription, no pool re-entry deadlock).
//
// The pool itself is only an executor: which thread runs which chunk
// never influences results, because chunks touch disjoint state.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace bkc {

template <typename Signature>
class FunctionRef;

/// Non-owning reference to a callable: an object pointer and a call
/// trampoline, two words. Unlike an owning type-erased wrapper, binding
/// one never heap-allocates, which keeps parallel regions off the heap.
/// Lifetime rule: the callable must outlive every call through the
/// reference. A lambda written as the argument of run() or
/// parallel_for() lives until the call returns, which is enough.
template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  // The first constraint keeps this template from capturing the copy
  // of a non-const FunctionRef lvalue, which would otherwise wrap the
  // reference itself (a dangling reference once the copy outlives it).
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& callable) noexcept  // NOLINT(google-explicit-constructor)
      : object_(const_cast<void*>(
            static_cast<const void*>(std::addressof(callable)))),
        call_([](void* object, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(object))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(object_, std::forward<Args>(args)...);
  }

 private:
  void* object_;
  R (*call_)(void*, Args...);
};

/// Fixed-size pool of worker threads. run() hands tasks out from one
/// shared counter, and the calling thread claims tasks alongside the
/// workers, so a region has num_workers() + 1 executors.
class ThreadPool {
 public:
  /// Spawns `num_workers` (>= 1) threads that sleep until run() is
  /// called.
  explicit ThreadPool(int num_workers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Execute task(0) .. task(num_tasks - 1), each exactly once, and
  /// block until all have finished. The caller and the workers claim
  /// task indices from one counter until none are left, so which
  /// thread runs a task depends on timing; while the caller runs its
  /// share, on_worker_thread() is true and current_num_threads() is 1
  /// on it, as on a worker. If any task threw, the exception of the
  /// lowest-numbered failing task is rethrown - a deterministic
  /// choice. Safe to call from multiple threads:
  /// concurrent calls serialize on the pool. Not re-entrant: run()
  /// must not be called from inside a task (parallel_for handles
  /// nesting by running inline instead). `task` is only borrowed; it
  /// must outlive the call.
  void run(int num_tasks, FunctionRef<void(int)> task);

  /// True on threads currently executing a ThreadPool task.
  static bool on_worker_thread();

  /// The process-wide pool shared by every parallel_for call site:
  /// max(1, hardware_concurrency - 1) workers, so with the caller a
  /// region uses every core, and the parallel code paths still run on
  /// two threads on a single-core host. Created on first use; never
  /// destroyed before exit.
  static ThreadPool& shared();

 private:
  void worker_loop();
  /// Claims and runs tasks of the current region until none are left.
  void drain() noexcept;

  std::mutex run_mutex_;  ///< serializes concurrent run() callers
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;  ///< bumped once per run() call
  int num_tasks_ = 0;
  std::atomic<int> next_task_{0};  ///< next unclaimed task index
  // Workers that have not finished the current region. run() returns,
  // and task_ changes, only once it is 0: a worker that wakes late
  // must never claim from the next region's counter through this
  // region's task.
  int active_workers_ = 0;
  const FunctionRef<void(int)>* task_ = nullptr;
  // The lowest-numbered failing task of the current run() and its
  // exception; written under mutex_, and only when a task throws.
  int error_task_ = 0;
  std::exception_ptr error_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// Boundaries of chunk `c` when [0, total) is split into `chunks`
/// contiguous near-equal pieces: every chunk gets total / chunks
/// elements and the first total % chunks chunks one extra. A pure
/// function of (total, chunks, c) - this is the partition parallel_for
/// hands out - and, unlike the naive `total * c / chunks` formula, free
/// of intermediate overflow for any total up to INT64_MAX (the naive
/// product overflows already for modest chunk counts once total nears
/// INT64_MAX / chunks). Preconditions: total >= 0, 0 <= c < chunks.
struct ChunkBounds {
  std::int64_t begin = 0;
  std::int64_t end = 0;
};
ChunkBounds chunk_bounds(std::int64_t total, int chunks, int c);

/// Split [0, total) into min(num_threads, total) contiguous chunks of
/// near-equal size (boundaries fixed by (total, num_threads) alone -
/// see chunk_bounds) and invoke chunk(begin, end) for each, using the
/// shared pool. With num_threads <= 1, or when already on a pool worker
/// (nested parallelism), the whole range executes inline on the caller
/// as the single chunk (0, total) - callers must therefore not key work
/// off the chunk boundaries themselves, only off the indices inside
/// them. `chunk` is only borrowed; it must outlive the call. Binding
/// it allocates nothing, so a warm region allocates nothing at any
/// thread count. Precondition: num_threads >= 1.
void parallel_for(
    std::int64_t total, int num_threads,
    FunctionRef<void(std::int64_t begin, std::int64_t end)> chunk);

/// Thread count consulted by parallel regions buried inside library
/// internals that take no thread-count parameter of their own (today:
/// the per-output-channel loop of bnn::binary_conv2d). Defaults to 1;
/// Engine::classify installs the caller's request for the duration of
/// the call. Thread-local, so concurrent callers never see each other's
/// setting.
int current_num_threads();

/// RAII override of current_num_threads() on this thread.
class ScopedNumThreads {
 public:
  /// Precondition: num_threads >= 1.
  explicit ScopedNumThreads(int num_threads);
  ~ScopedNumThreads();
  ScopedNumThreads(const ScopedNumThreads&) = delete;
  ScopedNumThreads& operator=(const ScopedNumThreads&) = delete;

 private:
  int previous_;
};

}  // namespace bkc
