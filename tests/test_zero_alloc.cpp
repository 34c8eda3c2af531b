// The zero-allocation contract of the planned forward path, pinned at
// the strongest possible level: a global operator-new/delete override
// counts EVERY heap allocation in the process, and a warm
// Engine::classify_into (pooled workspace, correctly-shaped scores)
// must perform exactly none, at threads 1, 2, 4 and 7 alike.
//
// This suite gets its own binary because the override is global to the
// translation unit's final link — no other suite should run with
// counting allocators underneath it.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>

#include "bnn/kernel_sequences.h"
#include "bnn/memory_plan.h"
#include "core/engine.h"
#include "support/support.h"
#include "util/binary_io.h"
#include "util/check.h"
#include "util/simd.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::size_t alignment) {
  ++g_allocations;
  void* p = nullptr;
  if (posix_memalign(&p, alignment, size ? size : alignment) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

std::uint64_t allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace

// Replace every form the standard library may route through. The sized
// and aligned variants must be covered too: a miss there would leak
// allocations past the counter and silently weaken the test.
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(size ? size : 1);
}
void* operator new(std::size_t size, std::align_val_t alignment) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(alignment));
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(alignment));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace bkc {
namespace {

TEST(ZeroAlloc, CounterSeesOrdinaryAllocations) {
  // Sanity-check the instrument itself before trusting its zeros.
  const std::uint64_t before = allocation_count();
  volatile int* p = new int(7);
  delete p;
  EXPECT_GT(allocation_count(), before);
}

TEST(ZeroAlloc, PassingChecksAllocateNothing) {
  // The per-element accessors the codec runs once per kernel slice or
  // field: a passing check must not build its message.
  bnn::PackedKernel kernel(KernelShape{3, 70, 3, 3});
  constexpr int kFields = 16;
  ByteWriter writer;
  for (int f = 0; f < kFields; ++f) {
    writer.write_u32(0x01020304u + static_cast<std::uint32_t>(f));
    writer.write_varint(300u + static_cast<std::uint64_t>(f));
    writer.write_bytes(std::vector<std::uint8_t>(8, 0xa5));
  }
  const std::vector<std::uint8_t> bytes = writer.take();
  // Longer than any small-string buffer, so an eagerly built message
  // that starts from it must allocate.
  const std::string context = "zero-allocation reader context";
  ByteReader reader(bytes, context);
  const KernelShape shape = kernel.shape();

  const auto touch_kernel = [&] {
    for (std::int64_t o = 0; o < shape.out_channels; ++o) {
      for (std::int64_t i = 0; i < shape.in_channels; ++i) {
        const auto seq = static_cast<bnn::SeqId>(
            (bnn::sequence_at(kernel, o, i) + o + i) % bnn::kNumSequences);
        bnn::set_sequence_at(kernel, o, i, seq);
      }
    }
  };
  touch_kernel();  // warm-up
  check(true, context, ": ", 42, shape);

  const std::uint64_t before = allocation_count();
  touch_kernel();
  std::uint64_t sum = 0;
  for (int f = 0; f < kFields; ++f) {
    sum += reader.read_u32();
    sum += reader.read_varint();
    sum += reader.read_span(8)[7];
  }
  check(true, context, ": ", 42, shape);
  const std::uint64_t after = allocation_count();

  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_GT(sum, 0u);
}

TEST(ZeroAlloc, WarmClassifyIntoAllocatesNothing) {
  Engine engine(test::tiny_config(51));
  engine.compress();
  bnn::WeightGenerator gen(5);
  const Tensor image = gen.sample_activation(engine.model().input_shape());
  Tensor expected;
  {
    simd::ScopedForceScalar force;
    expected = test::run_forward(engine.model(), image);
  }

  for (const int threads : {1, 2, 4, 7}) {
    SCOPED_TRACE("threads = " + std::to_string(threads));
    bnn::Workspace workspace = engine.make_workspace();
    Tensor scores;
    // Warm-up: shapes the scores tensor (and starts the shared pool on
    // the first multi-threaded count); the workspace was fully
    // allocated at construction.
    engine.classify_into(image, scores, workspace, threads);

    const std::uint64_t arena_allocs_per_pass =
        workspace.arena().allocation_count();
    const std::uint64_t heap_before = allocation_count();
    constexpr int kPasses = 10;
    for (int i = 0; i < kPasses; ++i) {
      engine.classify_into(image, scores, workspace, threads);
    }
    const std::uint64_t heap_after = allocation_count();

    // The contract: zero heap allocations per steady-state classify...
    EXPECT_EQ(heap_after - heap_before, 0u);
    // ...while the arena shows the same fixed bump count every pass
    // (it is doing all the work the heap no longer does)...
    EXPECT_EQ(workspace.arena().allocation_count(),
              (kPasses + 1) * arena_allocs_per_pass);
    EXPECT_EQ(workspace.arena().reset_count(),
              static_cast<std::uint64_t>(kPasses + 1));
    // ...to exactly the planned high-water mark.
    EXPECT_EQ(workspace.arena().high_water(),
              engine.memory_plan().arena_bytes());
    // And the result is still bit-identical to a fresh-workspace run
    // on the scalar kernels.
    ASSERT_EQ(scores.shape(), expected.shape());
    EXPECT_EQ(std::memcmp(scores.data().data(), expected.data().data(),
                          expected.data().size_bytes()),
              0);
  }
}

TEST(ZeroAlloc, PooledClassifyStopsAllocatingAfterWarmup) {
  Engine engine(test::tiny_config(53));
  engine.compress();
  bnn::WeightGenerator gen(6);
  const Tensor image = gen.sample_activation(engine.model().input_shape());
  const Tensor expected = engine.classify(image);

  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads = " + std::to_string(threads));
    // Warm the engine's internal pool (and the score-shape path).
    engine.classify(image, threads);
    engine.classify(image, threads);

    // Steady state: the only allocation left per classify() is the
    // returned score tensor itself (one vector), plus nothing from the
    // pool, the arena or the layers.
    const std::uint64_t before = allocation_count();
    constexpr int kPasses = 8;
    for (int i = 0; i < kPasses; ++i) {
      const Tensor scores = engine.classify(image, threads);
    }
    const std::uint64_t after = allocation_count();
    EXPECT_LE(after - before, static_cast<std::uint64_t>(kPasses));
    EXPECT_EQ(std::memcmp(engine.classify(image, threads).data().data(),
                          expected.data().data(),
                          expected.data().size_bytes()),
              0);
  }
}

}  // namespace
}  // namespace bkc
