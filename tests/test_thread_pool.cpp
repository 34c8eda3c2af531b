// Tests for the deterministic thread-pool subsystem.

#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "util/check.h"

namespace bkc {
namespace {

TEST(ThreadPool, RunExecutesEveryTaskExactlyOnce) {
  ThreadPool pool(3);
  for (int num_tasks : {0, 1, 2, 3, 7, 64}) {
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(num_tasks));
    pool.run(num_tasks, [&](int t) {
      hits[static_cast<std::size_t>(t)].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ReusableAcrossManyRuns) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.run(4, [&](int) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 200);
}

TEST(ThreadPool, RethrowsLowestNumberedFailingTask) {
  ThreadPool pool(4);
  // Tasks 5 and 2 both fail; the propagation rule picks task 2 every
  // time, independent of which worker hit its error first.
  for (int attempt = 0; attempt < 10; ++attempt) {
    try {
      pool.run(8, [&](int t) {
        if (t == 5) throw std::runtime_error("task 5");
        if (t == 2) throw std::runtime_error("task 2");
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 2");
    }
  }
  // A rethrown error does not outlive its run().
  EXPECT_NO_THROW(pool.run(8, [](int) {}));
}

TEST(ThreadPool, ConcurrentCallersSerializeSafely) {
  // Two user threads driving the same pool at once (e.g. two servers
  // sharing the process-wide pool): calls must serialize, every task
  // of both callers running exactly once.
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits_a(64);
  std::vector<std::atomic<int>> hits_b(64);
  std::thread other([&] {
    for (int round = 0; round < 16; ++round) {
      pool.run(4, [&, round](int t) {
        hits_b[static_cast<std::size_t>(round * 4 + t)].fetch_add(1);
      });
    }
  });
  for (int round = 0; round < 16; ++round) {
    pool.run(4, [&, round](int t) {
      hits_a[static_cast<std::size_t>(round * 4 + t)].fetch_add(1);
    });
  }
  other.join();
  for (const auto& h : hits_a) EXPECT_EQ(h.load(), 1);
  for (const auto& h : hits_b) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, BadArgumentsThrow) {
  EXPECT_THROW(ThreadPool(0), CheckError);
  ThreadPool pool(1);
  EXPECT_THROW(pool.run(-1, [](int) {}), CheckError);
}

TEST(ThreadPool, SharedPoolIsASingleton) {
  EXPECT_EQ(&ThreadPool::shared(), &ThreadPool::shared());
  // The caller is the last executor, so the pool spawns one thread
  // fewer than the hardware has, but never fewer than one.
  const int hardware =
      static_cast<int>(std::thread::hardware_concurrency());
  EXPECT_EQ(ThreadPool::shared().num_workers(), std::max(1, hardware - 1));
}

TEST(ThreadPool, CallerRunsAShare) {
  // One worker, two tasks, and each task waits until both are in
  // flight: only a caller that runs a task itself lets both meet. The
  // wait is bounded so that a regression fails instead of hanging.
  ThreadPool pool(1);
  std::mutex mutex;
  std::condition_variable arrived;
  int in_flight = 0;
  int met = 0;
  pool.run(2, [&](int) {
    std::unique_lock<std::mutex> lock(mutex);
    ++in_flight;
    arrived.notify_all();
    if (arrived.wait_for(lock, std::chrono::seconds(10),
                         [&] { return in_flight == 2; })) {
      ++met;
    }
  });
  EXPECT_EQ(met, 2);
}

TEST(ThreadPool, BackToBackRegionsNeverMixTasks) {
  // A worker that wakes late for one region must not claim the next
  // region's indices through the old task. Every round's callable and
  // slots live at their own address until the end, so a task run
  // through a stale pointer shows as a missing hit in its own round and
  // an extra hit in an earlier one.
  struct Round {
    std::vector<std::atomic<int>> hits;
    void operator()(int t) { hits[static_cast<std::size_t>(t)].fetch_add(1); }
  };
  constexpr int kRounds = 5000;
  ThreadPool pool(3);
  std::vector<Round> rounds(kRounds);
  for (int r = 0; r < kRounds; ++r) {
    Round& round = rounds[static_cast<std::size_t>(r)];
    const int num_tasks = 1 + r % 9;
    round.hits =
        std::vector<std::atomic<int>>(static_cast<std::size_t>(num_tasks));
    pool.run(num_tasks, round);
    for (const auto& h : round.hits) ASSERT_EQ(h.load(), 1) << "round " << r;
  }
  for (int r = 0; r < kRounds; ++r) {
    for (const auto& h : rounds[static_cast<std::size_t>(r)].hits) {
      ASSERT_EQ(h.load(), 1) << "round " << r;
    }
  }
}

TEST(ThreadPool, CallerThreadLocalsRestoredAfterThrow) {
  // The caller runs its share as a worker (on_worker_thread() true,
  // current_num_threads() 1); a throwing region must still hand both
  // back as they were.
  ScopedNumThreads outer(5);
  ThreadPool pool(1);
  EXPECT_THROW(pool.run(64, [](int) { throw std::runtime_error("task"); }),
               std::runtime_error);
  EXPECT_FALSE(ThreadPool::on_worker_thread());
  EXPECT_EQ(current_num_threads(), 5);
}

TEST(ThreadPool, OnWorkerThreadOnlyInsideTasks) {
  EXPECT_FALSE(ThreadPool::on_worker_thread());
  ThreadPool pool(2);
  std::atomic<int> inside{0};
  pool.run(4, [&](int) { inside.fetch_add(ThreadPool::on_worker_thread()); });
  EXPECT_EQ(inside.load(), 4);
  EXPECT_FALSE(ThreadPool::on_worker_thread());
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  for (std::int64_t total : {0, 1, 5, 64, 1000}) {
    for (int threads : {1, 2, 3, 7, 16}) {
      std::vector<std::atomic<int>> hits(static_cast<std::size_t>(total));
      parallel_for(total, threads, [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i) {
          hits[static_cast<std::size_t>(i)].fetch_add(1);
        }
      });
      for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    }
  }
}

TEST(ParallelFor, PartitionIsAFixedFunctionOfTotalAndThreads) {
  // The chunk boundaries must be reproducible run over run (no dynamic
  // scheduling): collect them twice and compare.
  const std::int64_t total = 103;
  const int threads = 7;
  auto collect = [&] {
    std::mutex mutex;
    std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
    parallel_for(total, threads, [&](std::int64_t begin, std::int64_t end) {
      std::lock_guard<std::mutex> lock(mutex);
      chunks.emplace_back(begin, end);
    });
    std::sort(chunks.begin(), chunks.end());
    return chunks;
  };
  const auto first = collect();
  ASSERT_EQ(first.size(), 7u);
  for (int round = 0; round < 5; ++round) EXPECT_EQ(collect(), first);
  // Contiguous cover of [0, total) with near-equal sizes.
  std::int64_t expected_begin = 0;
  for (const auto& [begin, end] : first) {
    EXPECT_EQ(begin, expected_begin);
    EXPECT_GE(end - begin, total / threads);
    EXPECT_LE(end - begin, total / threads + 1);
    expected_begin = end;
  }
  EXPECT_EQ(expected_begin, total);
}

TEST(ChunkBounds, CoversAnyRangeContiguouslyWithNearEqualChunks) {
  for (std::int64_t total : {0, 1, 5, 103, 1000}) {
    for (int chunks : {1, 2, 3, 7, 16}) {
      std::int64_t expected_begin = 0;
      for (int c = 0; c < chunks; ++c) {
        const ChunkBounds bounds = chunk_bounds(total, chunks, c);
        EXPECT_EQ(bounds.begin, expected_begin)
            << "total " << total << " chunks " << chunks << " c " << c;
        EXPECT_GE(bounds.end - bounds.begin, total / chunks);
        EXPECT_LE(bounds.end - bounds.begin, total / chunks + 1);
        expected_begin = bounds.end;
      }
      EXPECT_EQ(expected_begin, total);
    }
  }
}

TEST(ChunkBounds, NearInt64MaxTotalDoesNotOverflow) {
  // Regression: the old partition computed total * c / chunks, whose
  // intermediate product overflows (UB) for any total above
  // INT64_MAX / chunks. The overflow-free split must keep producing a
  // contiguous, near-equal cover right up to INT64_MAX.
  const std::int64_t huge = std::numeric_limits<std::int64_t>::max() - 9;
  for (int chunks : {2, 3, 7, 16}) {
    std::int64_t expected_begin = 0;
    for (int c = 0; c < chunks; ++c) {
      const ChunkBounds bounds = chunk_bounds(huge, chunks, c);
      ASSERT_EQ(bounds.begin, expected_begin) << "chunks " << chunks
                                              << " c " << c;
      ASSERT_GE(bounds.end, bounds.begin);
      ASSERT_GE(bounds.end - bounds.begin, huge / chunks);
      ASSERT_LE(bounds.end - bounds.begin, huge / chunks + 1);
      expected_begin = bounds.end;
    }
    ASSERT_EQ(expected_begin, huge);
  }
  // INT64_MAX itself, the absolute worst case.
  const std::int64_t max = std::numeric_limits<std::int64_t>::max();
  const ChunkBounds last = chunk_bounds(max, 7, 6);
  EXPECT_EQ(last.end, max);
}

TEST(ChunkBounds, ParallelForHandsOutTheSameBoundsForHugeTotals) {
  // parallel_for must survive (and partition correctly for) totals the
  // old arithmetic overflowed on. The chunks only record their
  // boundaries - nobody iterates 10^18 elements.
  const std::int64_t huge = std::numeric_limits<std::int64_t>::max() / 2 + 3;
  const int threads = 4;
  std::mutex mutex;
  std::vector<std::pair<std::int64_t, std::int64_t>> seen;
  parallel_for(huge, threads, [&](std::int64_t begin, std::int64_t end) {
    std::lock_guard<std::mutex> lock(mutex);
    seen.emplace_back(begin, end);
  });
  std::sort(seen.begin(), seen.end());
  ASSERT_EQ(seen.size(), 4u);
  std::int64_t expected_begin = 0;
  for (int c = 0; c < threads; ++c) {
    const ChunkBounds bounds = chunk_bounds(huge, threads, c);
    EXPECT_EQ(seen[static_cast<std::size_t>(c)].first, bounds.begin);
    EXPECT_EQ(seen[static_cast<std::size_t>(c)].second, bounds.end);
    EXPECT_EQ(bounds.begin, expected_begin);
    expected_begin = bounds.end;
  }
  EXPECT_EQ(expected_begin, huge);
}

TEST(ChunkBounds, BadArgumentsThrow) {
  EXPECT_THROW(chunk_bounds(-1, 2, 0), CheckError);
  EXPECT_THROW(chunk_bounds(10, 0, 0), CheckError);
  EXPECT_THROW(chunk_bounds(10, 2, -1), CheckError);
  EXPECT_THROW(chunk_bounds(10, 2, 2), CheckError);
}

TEST(ParallelFor, MoreThreadsThanWorkIsSafe) {
  std::vector<int> hits(3, 0);
  std::mutex mutex;
  parallel_for(3, 64, [&](std::int64_t begin, std::int64_t end) {
    std::lock_guard<std::mutex> lock(mutex);
    for (std::int64_t i = begin; i < end; ++i) {
      ++hits[static_cast<std::size_t>(i)];
    }
  });
  EXPECT_EQ(hits, (std::vector<int>{1, 1, 1}));
}

TEST(ParallelFor, NestedCallsRunInline) {
  // A parallel_for issued from inside a chunk must not re-enter the
  // pool (deadlock) - it runs inline and still covers its range.
  std::vector<std::atomic<int>> hits(32);
  parallel_for(4, 4, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t outer = begin; outer < end; ++outer) {
      parallel_for(8, 4, [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t inner = b; inner < e; ++inner) {
          hits[static_cast<std::size_t>(outer * 8 + inner)].fetch_add(1);
        }
      });
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, PropagatesChunkException) {
  EXPECT_THROW(
      parallel_for(16, 4,
                   [&](std::int64_t begin, std::int64_t) {
                     if (begin == 0) throw std::runtime_error("chunk 0");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, BadThreadCountThrows) {
  EXPECT_THROW(parallel_for(4, 0, [](std::int64_t, std::int64_t) {}),
               CheckError);
}

TEST(FunctionRefTest, CopyRefersToTheCallableNotTheCopiedReference) {
  int first = 0;
  int second = 0;
  const auto bump_first = [&](int by) { first += by; };
  const auto bump_second = [&](int by) { second += by; };
  FunctionRef<void(int)> ref = bump_first;
  // Copying a non-const lvalue must copy the two words, not wrap `ref`:
  // rebinding `ref` afterwards leaves the copy calling bump_first.
  FunctionRef<void(int)> copy = ref;
  ref = bump_second;
  copy(3);
  ref(5);
  EXPECT_EQ(first, 3);
  EXPECT_EQ(second, 5);
}

TEST(ScopedNumThreadsTest, InstallsAndRestores) {
  EXPECT_EQ(current_num_threads(), 1);
  {
    ScopedNumThreads outer(4);
    EXPECT_EQ(current_num_threads(), 4);
    {
      ScopedNumThreads inner(2);
      EXPECT_EQ(current_num_threads(), 2);
    }
    EXPECT_EQ(current_num_threads(), 4);
  }
  EXPECT_EQ(current_num_threads(), 1);
  EXPECT_THROW(ScopedNumThreads bad(0), CheckError);
}

TEST(ScopedNumThreadsTest, WorkerThreadsStartAtDefault) {
  // The override is thread-local: pool workers never inherit it, which
  // is what keeps nested conv parallelism serial inside batch workers.
  ScopedNumThreads outer(8);
  ThreadPool pool(2);
  std::atomic<int> sum{0};
  pool.run(2, [&](int) { sum.fetch_add(current_num_threads()); });
  EXPECT_EQ(sum.load(), 2);
}

}  // namespace
}  // namespace bkc
