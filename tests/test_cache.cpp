// Tests for the cache and memory-hierarchy timing substrate.

#include "hwsim/cache.h"

#include <gtest/gtest.h>

#include "util/check.h"

namespace bkc::hwsim {
namespace {

TEST(Cache, HitAfterFill) {
  Cache c(1024, 2, 64);
  EXPECT_FALSE(c.access(0));
  EXPECT_TRUE(c.access(0));
  EXPECT_TRUE(c.access(63));   // same line
  EXPECT_FALSE(c.access(64));  // next line
  EXPECT_EQ(c.hits(), 2u);
  EXPECT_EQ(c.misses(), 2u);
}

TEST(Cache, LruEvictionOrder) {
  // 2 ways, 64B lines, 2 sets -> addresses 0, 256, 512 map to set 0.
  Cache c(256, 2, 64);
  c.access(0);
  c.access(256);
  c.access(0);      // touch 0: now 256 is LRU
  c.access(512);    // evicts 256
  EXPECT_TRUE(c.access(0));
  EXPECT_FALSE(c.access(256));  // was evicted
}

TEST(Cache, CyclicWorkingSetLargerThanCapacityThrashes) {
  // The weight-stream behaviour behind the paper: a kernel slightly
  // larger than the cache re-walked in order misses every time with LRU.
  Cache c(8 * 64, 8, 64);  // one set, 8 ways
  for (int pass = 0; pass < 3; ++pass) {
    for (int line = 0; line < 9; ++line) {
      c.access(static_cast<std::uint64_t>(line) * 64);
    }
  }
  EXPECT_EQ(c.hits(), 0u);
}

TEST(Cache, RejectsBadGeometry) {
  EXPECT_THROW(Cache(100, 2, 64), bkc::CheckError);   // non-pow2 sets
  EXPECT_THROW(Cache(1024, 2, 60), bkc::CheckError);  // non-pow2 line
}

TEST(Hierarchy, LatenciesEscalateThroughLevels) {
  CpuParams params;
  MemoryHierarchy mem(params);
  const auto first = mem.access(0x1000, 16, 0);
  EXPECT_TRUE(first.dram);
  EXPECT_GE(first.latency, params.dram_latency);
  const auto second = mem.access(0x1000, 16, 1000);
  EXPECT_TRUE(second.l1_hit);
  EXPECT_EQ(second.latency, params.l1_latency);
}

TEST(Hierarchy, L2HitAfterL1Eviction) {
  CpuParams params;
  MemoryHierarchy mem(params);
  mem.access(0x0, 16, 0);
  // Walk enough lines mapping to the same L1 set to evict 0x0 from L1
  // while it stays in the (larger) L2.
  const std::int64_t l1_sets = params.l1_bytes / (params.l1_ways * 64);
  for (int i = 1; i <= params.l1_ways + 1; ++i) {
    mem.access(static_cast<std::uint64_t>(i) * l1_sets * 64, 16, 100 * i);
  }
  const auto result = mem.access(0x0, 16, 100000);
  EXPECT_TRUE(result.l2_hit);
  EXPECT_EQ(result.latency, params.l1_latency + params.l2_latency);
}

TEST(Hierarchy, StraddlingAccessTouchesBothLines) {
  CpuParams params;
  MemoryHierarchy mem(params);
  mem.access(60, 8, 0);  // crosses the 64B boundary
  EXPECT_TRUE(mem.access(0, 1, 10).l1_hit);
  EXPECT_TRUE(mem.access(64, 1, 11).l1_hit);
}

TEST(Hierarchy, MissSlotsLimitParallelism) {
  CpuParams params;
  params.max_outstanding_misses = 1;
  MemoryHierarchy serial(params);
  const auto a = serial.access(0x0000, 16, 0);
  const auto b = serial.access(0x1000, 16, 0);
  // With a single slot, the second miss waits for the whole first fill.
  EXPECT_GE(b.latency, a.latency + params.dram_latency);

  params.max_outstanding_misses = 4;
  MemoryHierarchy parallel(params);
  parallel.access(0x0000, 16, 0);
  const auto b2 = parallel.access(0x1000, 16, 0);
  EXPECT_LT(b2.latency, a.latency + params.dram_latency);
}

TEST(Hierarchy, NoteStreamTrafficCounts) {
  CpuParams params;
  MemoryHierarchy mem(params);
  mem.note_stream_traffic(64);
  mem.note_stream_traffic(64);
  EXPECT_EQ(mem.stream_bytes(), 128u);
  EXPECT_EQ(mem.dram_accesses(), 2u);
}

TEST(Hierarchy, ResetClearsEverything) {
  CpuParams params;
  MemoryHierarchy mem(params);
  mem.access(0x0, 16, 0);
  mem.reset();
  EXPECT_EQ(mem.dram_accesses(), 0u);
  EXPECT_FALSE(mem.access(0x0, 16, 0).l1_hit);
}

}  // namespace
}  // namespace bkc::hwsim
