// Tests for the conv-layer trace simulation (baseline / sw / hw).

#include "hwsim/conv_trace.h"

#include <gtest/gtest.h>

#include <vector>

#include "bnn/kernel_sequences.h"
#include "hwsim/perf_model.h"
#include "support/support.h"
#include "util/check.h"

namespace bkc::hwsim {
namespace {

using test::conv_op;

StreamInfo stream_for(std::int64_t channels, std::uint64_t seed) {
  return test::compressed_stream(channels, seed);
}

TEST(LayerGeometry, FromOpDerivesGroups) {
  const auto op = conv_op(192, 8);
  const auto g = LayerGeometry::from_op(op, 128);
  EXPECT_EQ(g.groups, 2);
  EXPECT_EQ(g.out_h, 8);
  EXPECT_EQ(g.positions(), 9);
  const auto g1 = LayerGeometry::from_op(conv_op(64, 8, 1), 128);
  EXPECT_EQ(g1.positions(), 1);
  EXPECT_EQ(g1.groups, 1);
}

TEST(LayerGeometry, EqualLayoutEqualKeyNotName) {
  const auto ops = bnn::op_records_for(test::tiny_config(1));
  std::vector<const bnn::OpRecord*> conv3x3;
  for (const auto& op : ops) {
    if (op.op_class == bnn::OpClass::kConv3x3 && op.precision_bits == 1) {
      conv3x3.push_back(&op);
    }
  }
  // The 13-block MobileNet schedule: blocks 6..10 are the five
  // {512,512,1} (width-divided) repeats and share a geometry under
  // different names; the first and last blocks do not.
  ASSERT_EQ(conv3x3.size(), 13u);
  const auto geometry = [](const bnn::OpRecord* op) {
    return LayerGeometry::from_op(*op, 128);
  };
  EXPECT_NE(geometry(conv3x3.front()), geometry(conv3x3.back()));
  for (std::size_t b = 7; b <= 10; ++b) {
    EXPECT_NE(conv3x3[6]->name, conv3x3[b]->name);
    EXPECT_EQ(geometry(conv3x3[6]), geometry(conv3x3[b]));
  }
}

TEST(ConvTrace, BaselineProducesPositiveScaledCycles) {
  const auto op = conv_op(64, 8);
  const auto result =
      simulate_binary_conv_layer(op, ConvVariant::kBaseline);
  EXPECT_GT(result.cycles, 0u);
  EXPECT_EQ(result.decode_cycles, 0u);
  EXPECT_GT(result.sampled_uops, 0u);
}

TEST(ConvTrace, DeterministicAcrossRuns) {
  const auto op = conv_op(64, 8);
  const auto a = simulate_binary_conv_layer(op, ConvVariant::kBaseline);
  const auto b = simulate_binary_conv_layer(op, ConvVariant::kBaseline);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.dram_accesses, b.dram_accesses);
}

TEST(ConvTrace, CompressedVariantsRequireStream) {
  const auto op = conv_op(64, 8);
  EXPECT_THROW(simulate_binary_conv_layer(op, ConvVariant::kSwDecode),
               bkc::CheckError);
  EXPECT_THROW(simulate_binary_conv_layer(op, ConvVariant::kHwDecode),
               bkc::CheckError);
}

TEST(ConvTrace, StreamLengthMismatchThrows) {
  const auto op = conv_op(64, 8);
  const StreamInfo stream = stream_for(32, 3);  // wrong kernel size
  EXPECT_THROW(
      simulate_binary_conv_layer(op, ConvVariant::kHwDecode, &stream),
      bkc::CheckError);
}

TEST(ConvTrace, SwDecodeIsSlowerThanBaseline) {
  const auto op = conv_op(128, 8);
  const StreamInfo stream = stream_for(128, 5);
  const auto base = simulate_binary_conv_layer(op, ConvVariant::kBaseline);
  const auto sw =
      simulate_binary_conv_layer(op, ConvVariant::kSwDecode, &stream);
  EXPECT_GT(sw.cycles, base.cycles);
  EXPECT_GT(sw.decode_cycles, 0u);
}

TEST(ConvTrace, HwDecodeNeverSlowerThanBaselineOnBigLayers) {
  // A 512-channel 14x14 layer: the kernel exceeds the L2, so the
  // decoder unit's latency hiding must pay off (the paper's Sec VI
  // speedup mechanism).
  const auto op = conv_op(512, 14);
  const StreamInfo stream = stream_for(512, 7);
  const auto base = simulate_binary_conv_layer(op, ConvVariant::kBaseline);
  const auto hw =
      simulate_binary_conv_layer(op, ConvVariant::kHwDecode, &stream);
  EXPECT_LT(hw.cycles, base.cycles);
  // And the weight-load stalls are gone.
  EXPECT_LT(hw.ldps_stall_cycles, base.load_stall_cycles / 4);
}

TEST(ConvTrace, HwReducesDramTraffic) {
  const auto op = conv_op(512, 14);
  const StreamInfo stream = stream_for(512, 9);
  const auto base = simulate_binary_conv_layer(op, ConvVariant::kBaseline);
  const auto hw =
      simulate_binary_conv_layer(op, ConvVariant::kHwDecode, &stream);
  EXPECT_LT(hw.dram_accesses, base.dram_accesses);
}

TEST(ConvTrace, SmallLayerFullySimulatedWithoutScaling) {
  const auto op = conv_op(16, 3);  // 3 output rows = fewer than sample
  const auto result =
      simulate_binary_conv_layer(op, ConvVariant::kBaseline);
  EXPECT_GT(result.cycles, 0u);
}

TEST(ConvTrace, VariantNames) {
  EXPECT_EQ(variant_name(ConvVariant::kBaseline), "baseline");
  EXPECT_EQ(variant_name(ConvVariant::kSwDecode), "sw-decode");
  EXPECT_EQ(variant_name(ConvVariant::kHwDecode), "hw-decode");
}

}  // namespace
}  // namespace bkc::hwsim
