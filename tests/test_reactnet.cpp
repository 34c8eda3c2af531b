// Tests for the ReActNet model: topology, shapes, Table I storage shape.

#include "bnn/reactnet.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "support/support.h"
#include "util/check.h"

namespace bkc::bnn {
namespace {

TEST(Schedule, ThirteenBlocksMobileNetV1) {
  const auto blocks = mobilenet_v1_schedule();
  ASSERT_EQ(blocks.size(), 13u);
  EXPECT_EQ(blocks.front().in_channels, 32);
  EXPECT_EQ(blocks.front().out_channels, 64);
  EXPECT_EQ(blocks.back().in_channels, 1024);
  // Every block expands to in or 2*in with stride 1 or 2.
  for (const auto& b : blocks) {
    EXPECT_TRUE(b.out_channels == b.in_channels ||
                b.out_channels == 2 * b.in_channels);
    EXPECT_TRUE(b.stride == 1 || b.stride == 2);
  }
}

TEST(Schedule, WidthDivisorScalesAndClamps) {
  const auto blocks = mobilenet_v1_schedule(8);
  EXPECT_EQ(blocks.front().in_channels, 4);  // 32/8
  EXPECT_EQ(blocks.back().out_channels, 128);
  const auto tiny = mobilenet_v1_schedule(64);
  EXPECT_EQ(tiny.front().in_channels, 4);  // clamped at 4
}

/// One block through forward_into, with a workspace planned from the
/// block's own op records.
Tensor run_block(const BasicBlock& block, const Tensor& input) {
  Workspace workspace(plan_reactnet_forward(block.op_records(input.shape())));
  Tensor out(block.output_shape(input.shape()));
  block.forward_into(input, out, workspace);
  return out;
}

TEST(BasicBlock, NonExpandingForwardShape) {
  WeightGenerator gen(3);
  const SequenceDistribution dist = SequenceDistribution::uniform();
  BasicBlock block("b", {16, 16, 1}, gen, dist);
  const Tensor out = run_block(block, gen.sample_activation({16, 8, 8}));
  EXPECT_EQ(out.shape(), (FeatureShape{16, 8, 8}));
  EXPECT_EQ(block.conv1x1s().size(), 1u);
}

TEST(BasicBlock, ExpandingStride2ForwardShape) {
  WeightGenerator gen(5);
  const SequenceDistribution dist = SequenceDistribution::uniform();
  BasicBlock block("b", {16, 32, 2}, gen, dist);
  const Tensor out = run_block(block, gen.sample_activation({16, 8, 8}));
  EXPECT_EQ(out.shape(), (FeatureShape{32, 4, 4}));
  EXPECT_EQ(block.conv1x1s().size(), 2u);  // channel duplication
  EXPECT_EQ(block.output_shape({16, 8, 8}), (FeatureShape{32, 4, 4}));
}

TEST(BasicBlock, RejectsBadExpansion) {
  WeightGenerator gen(7);
  const SequenceDistribution dist = SequenceDistribution::uniform();
  EXPECT_THROW(BasicBlock("b", {16, 48, 1}, gen, dist), CheckError);
  EXPECT_THROW(BasicBlock("b", {16, 16, 3}, gen, dist), CheckError);
}

TEST(BasicBlock, Conv3x3IsInToIn) {
  WeightGenerator gen(9);
  const SequenceDistribution dist = SequenceDistribution::uniform();
  BasicBlock block("b", {16, 32, 2}, gen, dist);
  EXPECT_EQ(block.conv3x3().kernel().shape(),
            (KernelShape{16, 16, 3, 3}));
}

TEST(ReActNet, TinyForwardRuns) {
  const ReActNet model(test::tiny_config(21));
  Tensor image(model.input_shape());
  WeightGenerator gen(22);
  image = gen.sample_activation(model.input_shape());
  const Tensor scores = test::run_forward(model, image);
  EXPECT_EQ(scores.shape(), (FeatureShape{10, 1, 1}));
  // Scores should not be all equal (the network is doing something).
  float lo = scores.data()[0];
  float hi = scores.data()[0];
  for (float v : scores.data()) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_GT(hi - lo, 1e-6f);
}

TEST(ReActNet, ForwardIsDeterministic) {
  // A fresh workspace and a reused one give the same scores.
  const ReActNet model(test::tiny_config(33));
  WeightGenerator gen(34);
  const Tensor image = gen.sample_activation(model.input_shape());
  const Tensor a = test::run_forward(model, image);
  Workspace workspace(model.memory_plan());
  Tensor b(a.shape());
  model.forward_into(image, b, workspace);
  model.forward_into(image, b, workspace);
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    EXPECT_FLOAT_EQ(a.data()[i], b.data()[i]);
  }
}

TEST(ReActNet, SameSeedSameModel) {
  const ReActNet a(test::tiny_config(55));
  const ReActNet b(test::tiny_config(55));
  for (std::size_t i = 0; i < a.num_blocks(); ++i) {
    EXPECT_TRUE(a.block(i).conv3x3().kernel() ==
                b.block(i).conv3x3().kernel());
  }
}

TEST(ReActNet, WrongInputShapeThrows) {
  const ReActNet model(test::tiny_config(42));
  Tensor bad(FeatureShape{3, 16, 16});
  EXPECT_THROW(test::run_forward(model, bad), CheckError);
}

TEST(ReActNet, PaperStorageBreakdownMatchesTableI) {
  // The full-size model reproduces Table I's storage column: 3x3 convs
  // ~68%, 1x1 ~8.5%, int8 output ~22%, input ~0.02%.
  const ReActNet model(paper_reactnet_config(1));
  const StorageBreakdown storage = model.storage();
  EXPECT_NEAR(storage.bits_fraction(OpClass::kConv3x3), 0.68, 0.04);
  EXPECT_NEAR(storage.bits_fraction(OpClass::kConv1x1), 0.085, 0.015);
  EXPECT_NEAR(storage.bits_fraction(OpClass::kOutputLayer), 0.22, 0.03);
  EXPECT_LT(storage.bits_fraction(OpClass::kInputLayer), 0.001);
  // Paper: ~29-37 Mbit of weights; ours lands in the same range.
  EXPECT_GT(storage.total_bits, 30'000'000u);
  EXPECT_LT(storage.total_bits, 45'000'000u);
}

TEST(ReActNet, OpRecordsCoverEveryConv) {
  const ReActNet model(test::tiny_config(42));
  const auto records = model.op_records();
  int conv3 = 0;
  int conv1 = 0;
  int input = 0;
  int output = 0;
  for (const auto& r : records) {
    conv3 += r.op_class == OpClass::kConv3x3 && r.precision_bits == 1;
    conv1 += r.op_class == OpClass::kConv1x1;
    input += r.op_class == OpClass::kInputLayer;
    output += r.op_class == OpClass::kOutputLayer;
  }
  EXPECT_EQ(conv3, 13);
  EXPECT_EQ(input, 1);
  EXPECT_EQ(output, 1);
  // 13 blocks, expanding blocks have two 1x1 convs.
  int expected_1x1 = 0;
  for (const auto& b : model.config().blocks) {
    expected_1x1 += b.out_channels == 2 * b.in_channels ? 2 : 1;
  }
  EXPECT_EQ(conv1, expected_1x1);
}

TEST(ReActNet, BlockIndexGuard) {
  const ReActNet model(test::tiny_config(42));
  EXPECT_THROW(model.block(13), CheckError);
}

std::string op_layout(const std::vector<OpRecord>& records) {
  std::ostringstream out;
  for (const auto& r : records) {
    out << r.name << " " << op_class_name(r.op_class) << " int"
        << r.precision_bits << " in=" << r.input_shape.to_string()
        << " out=" << r.output_shape.to_string()
        << " kernel=" << r.kernel_shape.to_string()
        << " stride=" << r.geometry.stride
        << " padding=" << r.geometry.padding
        << " storage_bits=" << r.storage_bits << " macs=" << r.macs
        << "\n";
  }
  return out.str();
}

TEST(ReActNet, OpRecordLayoutMatchesGolden) {
  // The resolved op list (names, shapes, geometry, precisions, storage)
  // is the contract the compressor, the memory plan and the timing
  // model consume; pin it on the tiny model and at the paper's widths
  // (the latter through op_records_for, which walks the same layers
  // without sampling a weight).
  test::expect_matches_golden(
      "reactnet_tiny_ops.txt",
      op_layout(ReActNet(test::tiny_config(42)).op_records()));
  test::expect_matches_golden(
      "reactnet_paper_ops.txt",
      op_layout(op_records_for(paper_reactnet_config(42))));
}

TEST(ReActNet, OpRecordsForMatchesARealModelFieldForField) {
  // op_records_for stands the model up with layout-only (zero-filled)
  // weights; because op records depend on shapes alone, every field
  // must equal the records of a fully sampled model with the same
  // configuration. This is what lets container tooling feed hwsim
  // without paying weight generation — the pin here guarantees the
  // cheap layout can never drift from the real one.
  for (const auto& config : {test::tiny_config(42), test::mid_config(7)}) {
    const std::vector<OpRecord> cheap = op_records_for(config);
    const std::vector<OpRecord> real = ReActNet(config).op_records();
    ASSERT_EQ(cheap.size(), real.size());
    for (std::size_t i = 0; i < cheap.size(); ++i) {
      EXPECT_EQ(cheap[i].name, real[i].name) << i;
      EXPECT_EQ(cheap[i].op_class, real[i].op_class) << i;
      EXPECT_EQ(cheap[i].storage_bits, real[i].storage_bits) << i;
      EXPECT_EQ(cheap[i].macs, real[i].macs) << i;
      EXPECT_EQ(cheap[i].precision_bits, real[i].precision_bits) << i;
      EXPECT_TRUE(cheap[i].input_shape == real[i].input_shape) << i;
      EXPECT_TRUE(cheap[i].output_shape == real[i].output_shape) << i;
      EXPECT_TRUE(cheap[i].kernel_shape == real[i].kernel_shape) << i;
      EXPECT_EQ(cheap[i].geometry.stride, real[i].geometry.stride) << i;
      EXPECT_EQ(cheap[i].geometry.padding, real[i].geometry.padding) << i;
    }
  }
}

}  // namespace
}  // namespace bkc::bnn
