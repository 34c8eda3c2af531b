// Tests for the decoding-unit timing model (Fig. 6).

#include "hwsim/decoder_unit.h"

#include <gtest/gtest.h>

#include "support/support.h"
#include "util/check.h"

namespace bkc::hwsim {
namespace {

using test::uniform_stream;

TEST(StreamInfo, Accounting) {
  const StreamInfo s = uniform_stream(100, 7);
  EXPECT_EQ(s.total_bits, 700u);
  EXPECT_DOUBLE_EQ(s.mean_bits(), 7.0);
}

TEST(DecoderUnit, FirstPopPaysConfigureFetchAndDecode) {
  CpuParams cpu;
  MemoryHierarchy mem(cpu);
  DecoderParams params;
  const StreamInfo stream = uniform_stream(128, 7);
  DecoderUnitRuntime unit(params, mem, stream, {128}, 9, /*start=*/0);
  const auto t = unit.pop(0);
  // configure + first fetch latency + 128 cycles of decode, roughly.
  EXPECT_GT(t, 128u);
  EXPECT_LT(t, 600u);
  EXPECT_EQ(unit.remaining_pops(), 8u);
}

TEST(DecoderUnit, PopsWithinAGroupAreCheapAfterTheFirst) {
  CpuParams cpu;
  MemoryHierarchy mem(cpu);
  DecoderParams params;
  const StreamInfo stream = uniform_stream(128, 7);
  DecoderUnitRuntime unit(params, mem, stream, {128}, 9, 0);
  const auto first = unit.pop(0);
  const auto second = unit.pop(first);
  EXPECT_EQ(second, first + static_cast<std::uint64_t>(params.ldps_cycles));
}

TEST(DecoderUnit, DecodeOverlapsConsumption) {
  // If the consumer is slow, later groups are ready the moment they are
  // asked for (the unit decoded them in the background).
  CpuParams cpu;
  MemoryHierarchy mem(cpu);
  DecoderParams params;
  const StreamInfo stream = uniform_stream(4 * 128, 7);
  DecoderUnitRuntime unit(params, mem, stream,
                          {128, 128, 128, 128}, 9, 0);
  std::uint64_t t = 0;
  for (int i = 0; i < 9; ++i) t = unit.pop(t);
  // Consume group 1 much later: all pops complete in ldps time.
  std::uint64_t late = t + 100000;
  for (int i = 0; i < 9; ++i) {
    const auto done = unit.pop(late);
    EXPECT_EQ(done, late + 1);
    late = done;
  }
}

TEST(DecoderUnit, RegisterFileBackpressureThrottlesDecode) {
  // With room for two groups, group g is not decoded until group g-2 is
  // fully popped: a consumer that never pops groups 0/1 late gets group
  // 2 only after freeing group 0.
  CpuParams cpu;
  MemoryHierarchy mem(cpu);
  DecoderParams params;
  const StreamInfo stream = uniform_stream(3 * 128, 7);
  DecoderUnitRuntime unit(params, mem, stream, {128, 128, 128}, 9, 0);
  std::uint64_t t = 50000;  // consumer shows up very late
  std::uint64_t group0_last = 0;
  for (int i = 0; i < 9; ++i) group0_last = t = unit.pop(t);
  for (int i = 0; i < 9; ++i) t = unit.pop(t);  // group 1
  const auto group2_first = unit.pop(t);
  // Group 2 decode could only start after group 0 was freed.
  EXPECT_GE(group2_first, group0_last + 128);
}

TEST(DecoderUnit, ThroughputIsOneSequencePerCycle) {
  CpuParams cpu;
  MemoryHierarchy mem(cpu);
  DecoderParams params;
  const std::size_t groups = 16;
  const StreamInfo stream = uniform_stream(groups * 128, 7);
  std::vector<std::uint32_t> sizes(groups, 128);
  DecoderUnitRuntime unit(params, mem, stream, sizes, 9, 0);
  // Pop everything immediately: the long-run rate is bounded by decode
  // (1 seq/cycle), not by stream fetches.
  std::uint64_t t = 0;
  for (std::size_t i = 0; i < groups * 9; ++i) t = unit.pop(t);
  const double cycles_per_seq =
      static_cast<double>(t) / static_cast<double>(groups * 128);
  EXPECT_LT(cycles_per_seq, 1.6);
  EXPECT_GE(cycles_per_seq, 1.0);
  EXPECT_EQ(unit.remaining_pops(), 0u);
}

TEST(DecoderUnit, StreamTrafficIsAccounted) {
  CpuParams cpu;
  MemoryHierarchy mem(cpu);
  DecoderParams params;
  const StreamInfo stream = uniform_stream(512, 8);  // 512 bytes total
  DecoderUnitRuntime unit(params, mem, stream, {512}, 9, 0);
  unit.pop(0);
  EXPECT_GE(mem.stream_bytes(), 512u);
}

TEST(DecoderUnit, GroupSizesMustCoverStream) {
  CpuParams cpu;
  MemoryHierarchy mem(cpu);
  DecoderParams params;
  const StreamInfo stream = uniform_stream(100, 7);
  EXPECT_THROW(DecoderUnitRuntime(params, mem, stream, {64}, 9, 0),
               bkc::CheckError);
}

TEST(DecoderUnit, PartialLastGroup) {
  CpuParams cpu;
  MemoryHierarchy mem(cpu);
  DecoderParams params;
  const StreamInfo stream = uniform_stream(128 + 32, 6);
  DecoderUnitRuntime unit(params, mem, stream, {128, 32}, 9, 0);
  std::uint64_t t = 0;
  for (int i = 0; i < 18; ++i) t = unit.pop(t);
  EXPECT_EQ(unit.remaining_pops(), 0u);
}

}  // namespace
}  // namespace bkc::hwsim
