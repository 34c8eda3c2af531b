// Tests for the non-conv layers of the ReActNet block.

#include "bnn/layers.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "bnn/memory_plan.h"
#include "bnn/weights.h"
#include "util/check.h"
#include "util/simd.h"

namespace bkc::bnn {
namespace {

/// Workspace big enough for any layer in these tests.
Workspace test_workspace() {
  return Workspace(MemoryPlan{.activation_floats = 4096,
                              .scratch_bytes = 16384,
                              .pack_words = 1024});
}

/// `layer` applied to `input` through forward_into.
template <typename LayerT>
Tensor run(const LayerT& layer, const Tensor& input) {
  Workspace workspace = test_workspace();
  Tensor out(layer.output_shape(input.shape()));
  layer.forward_into(input, out, workspace);
  return out;
}

bool bit_identical(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size_bytes()) == 0;
}

TEST(BatchNorm, AffinePerChannel) {
  BatchNorm bn("bn", {2.0f, -1.0f}, {0.5f, 1.0f});
  Tensor t(FeatureShape{2, 1, 2}, {1.0f, 2.0f, 3.0f, 4.0f});
  const Tensor out = run(bn, t);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), 2.5f);
  EXPECT_FLOAT_EQ(out.at(0, 0, 1), 4.5f);
  EXPECT_FLOAT_EQ(out.at(1, 0, 0), -2.0f);
  EXPECT_FLOAT_EQ(out.at(1, 0, 1), -3.0f);
}

TEST(BatchNorm, ChannelMismatchThrows) {
  BatchNorm bn("bn", {1.0f}, {0.0f});
  Tensor t(FeatureShape{2, 1, 1});
  EXPECT_THROW(run(bn, t), CheckError);
}

TEST(RPReLU, ShiftSlopeShift) {
  // y = PReLU(x - shift_in) + shift_out with slope on the negative side.
  RPReLU act("act", /*shift_in=*/{1.0f}, /*slope=*/{0.5f},
             /*shift_out=*/{10.0f});
  Tensor t(FeatureShape{1, 1, 3}, {3.0f, 1.0f, -1.0f});
  const Tensor out = run(act, t);
  EXPECT_FLOAT_EQ(out.data()[0], 2.0f + 10.0f);   // positive branch
  EXPECT_FLOAT_EQ(out.data()[1], 0.0f + 10.0f);   // at the knee
  EXPECT_FLOAT_EQ(out.data()[2], -1.0f + 10.0f);  // 0.5 * (-2) + 10
}

TEST(AvgPool2x2, Averages) {
  AvgPool2x2 pool;
  Tensor t(FeatureShape{1, 2, 2}, {1.0f, 2.0f, 3.0f, 6.0f});
  const Tensor out = run(pool, t);
  EXPECT_EQ(out.shape(), (FeatureShape{1, 1, 1}));
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), 3.0f);
}

TEST(AvgPool2x2, OddSizeThrows) {
  AvgPool2x2 pool;
  Tensor t(FeatureShape{1, 3, 2});
  EXPECT_THROW(run(pool, t), CheckError);
}

TEST(GlobalAvgPool, ReducesToOnePixel) {
  GlobalAvgPool pool;
  Tensor t(FeatureShape{2, 2, 2}, {1, 1, 1, 1, 2, 2, 2, 10});
  const Tensor out = run(pool, t);
  EXPECT_EQ(out.shape(), (FeatureShape{2, 1, 1}));
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(out.at(1, 0, 0), 4.0f);
}

TEST(Int8Conv, ApproximatesFloatConv) {
  WeightGenerator gen(3);
  const KernelShape ks{4, 3, 3, 3};
  const WeightTensor w = gen.sample_float_weights(ks, 0.5f);
  Int8Conv2d conv("stem", w, std::vector<float>(4, 0.0f),
                  {.stride = 2, .padding = 1});
  const Tensor input = gen.sample_activation({3, 8, 8});
  const Tensor q_out = run(conv, input);
  const Tensor f_out =
      reference_conv2d(input, w, {.stride = 2, .padding = 1}, 0.0f);
  ASSERT_EQ(q_out.shape(), f_out.shape());
  // int8 quantization error stays small relative to the output scale.
  float max_abs = 0.0f;
  for (float v : f_out.data()) max_abs = std::max(max_abs, std::abs(v));
  for (std::size_t i = 0; i < q_out.data().size(); ++i) {
    EXPECT_NEAR(q_out.data()[i], f_out.data()[i], 0.05f * max_abs + 0.05f);
  }
}

TEST(Int8Linear, ApproximatesFloatGemv) {
  WeightGenerator gen(5);
  const std::int64_t in = 32;
  const std::int64_t out = 7;
  const auto w = gen.sample_floats(static_cast<std::size_t>(in * out), 0.3f);
  const auto bias = gen.sample_floats(static_cast<std::size_t>(out), 0.1f);
  Int8Linear fc("fc", in, out, w, bias);
  Tensor input(FeatureShape{in, 1, 1});
  for (auto& v : input.data()) v = static_cast<float>(gen.rng().normal());
  const Tensor got = run(fc, input);
  for (std::int64_t o = 0; o < out; ++o) {
    float expect = bias[static_cast<std::size_t>(o)];
    for (std::int64_t i = 0; i < in; ++i) {
      expect += w[static_cast<std::size_t>(o * in + i)] *
                input.at(i, 0, 0);
    }
    EXPECT_NEAR(got.at(o, 0, 0), expect, 0.15f);
  }
}

TEST(Int8Linear, RequiresFlatInput) {
  Int8Linear fc("fc", 4, 2, std::vector<float>(8, 0.1f),
                std::vector<float>(2, 0.0f));
  Tensor t(FeatureShape{4, 2, 1});
  EXPECT_THROW(fc.output_shape(t.shape()), CheckError);
  Workspace workspace = test_workspace();
  Tensor out(FeatureShape{2, 1, 1});
  EXPECT_THROW(fc.forward_into(t, out, workspace), CheckError);
}

TEST(Topology, ResidualAdd) {
  Tensor a(FeatureShape{1, 1, 2}, {1.0f, 2.0f});
  Tensor b(FeatureShape{1, 1, 2}, {10.0f, 20.0f});
  Tensor sum(a.shape());
  residual_add_into(a, b, sum);
  EXPECT_FLOAT_EQ(sum.data()[0], 11.0f);
  EXPECT_FLOAT_EQ(sum.data()[1], 22.0f);
}

TEST(Topology, ResidualShapeMismatchThrows) {
  Tensor a(FeatureShape{1, 1, 2});
  Tensor b(FeatureShape{1, 2, 1});
  Tensor out(a.shape());
  EXPECT_THROW(residual_add_into(a, b, out), CheckError);
  Tensor wrong_out(FeatureShape{2, 1, 2});
  EXPECT_THROW(residual_add_into(a, a, wrong_out), CheckError);
}

TEST(OpRecord, BinaryConvReportsItsKernelAndGeometry) {
  PackedKernel k3(KernelShape{4, 8, 3, 3});
  BinaryConv2d c3("c3", std::move(k3), {.stride = 2, .padding = 1});
  const OpRecord r3 = c3.op_record({8, 4, 4});
  EXPECT_EQ(r3.name, "c3");
  EXPECT_EQ(r3.op_class, OpClass::kConv3x3);
  EXPECT_EQ(r3.precision_bits, 1);
  EXPECT_EQ(r3.storage_bits, 4u * 8u * 9u);
  EXPECT_TRUE(r3.input_shape == (FeatureShape{8, 4, 4}));
  EXPECT_TRUE(r3.output_shape == (FeatureShape{4, 2, 2}));
  EXPECT_EQ(r3.macs, 4u * 2u * 2u * 8u * 9u);
  EXPECT_TRUE(r3.kernel_shape == (KernelShape{4, 8, 3, 3}));
  EXPECT_EQ(r3.geometry.stride, 2);
  EXPECT_EQ(r3.geometry.padding, 1);

  PackedKernel k1(KernelShape{4, 8, 1, 1});
  BinaryConv2d c1("c1", std::move(k1), {.stride = 1, .padding = 0});
  EXPECT_EQ(c1.op_record({8, 4, 4}).op_class, OpClass::kConv1x1);
}

TEST(BinaryConv2d, SetKernelShapeGuard) {
  PackedKernel k(KernelShape{4, 8, 3, 3});
  BinaryConv2d conv("c", std::move(k), {.stride = 1, .padding = 1});
  EXPECT_THROW(conv.set_kernel(PackedKernel(KernelShape{4, 8, 1, 1})),
               CheckError);
  conv.set_kernel(PackedKernel(KernelShape{4, 8, 3, 3}));  // ok
}

TEST(OpClassNames, MatchTableI) {
  EXPECT_EQ(op_class_name(OpClass::kInputLayer), "Input Layer");
  EXPECT_EQ(op_class_name(OpClass::kOutputLayer), "Output Layer");
  EXPECT_EQ(op_class_name(OpClass::kConv1x1), "Conv 1x1");
  EXPECT_EQ(op_class_name(OpClass::kConv3x3), "Conv 3x3");
  EXPECT_EQ(op_class_name(OpClass::kOther), "Others");
}

// ---- forward_into: binary conv oracle, aliasing, shape guards ----

Tensor random_activation(const FeatureShape& shape, std::uint64_t seed) {
  WeightGenerator gen(seed);
  return gen.sample_activation(shape);
}

TEST(ForwardInto, BinaryConvMatchesScalarPackedConv) {
  // The oracle: pack_feature (the set_bit reference packer) feeding the
  // scalar xnor/popcount kernel. forward_into packs with
  // pack_feature_into into the workspace scratch and runs the
  // dispatched kernel; both must agree bit-for-bit.
  WeightGenerator gen(31);
  const Tensor input = random_activation({8, 6, 6}, 61);
  const BinaryConv2d convs[] = {
      {"c3", gen.sample_kernel({4, 8, 3, 3}), {1, 1}},
      {"c1", gen.sample_kernel({8, 8, 1, 1}), {1, 0}},
      {"c3s2", gen.sample_kernel({8, 8, 3, 3}), {2, 1}},
  };
  for (const BinaryConv2d& conv : convs) {
    Tensor expected;
    {
      simd::ScopedForceScalar force;
      expected =
          binary_conv2d(pack_feature(input, conv.geometry().padding),
                        conv.kernel(), conv.geometry());
    }
    EXPECT_TRUE(bit_identical(run(conv, input), expected)) << conv.name();
  }
}

TEST(ForwardInto, AliasSafeLayersRunInPlace) {
  // BatchNorm and RPReLU document in-place support — the block
  // orchestration overwrites its own buffers through them.
  WeightGenerator gen(33);
  const Tensor input = random_activation({4, 5, 5}, 67);
  Workspace workspace = test_workspace();
  const BatchNorm bn("bn", gen.sample_floats(4, 0.1f, 1.0f),
                     gen.sample_floats(4, 0.05f));
  const RPReLU act("act", gen.sample_floats(4, 0.1f),
                   gen.sample_floats(4, 0.05f, 0.25f),
                   gen.sample_floats(4, 0.1f));
  const auto expect_in_place = [&](const auto& layer) {
    const Tensor expected = run(layer, input);
    Tensor in_place = input;
    TensorView view(in_place);
    layer.forward_into(view, view, workspace);
    EXPECT_TRUE(bit_identical(in_place, expected)) << layer.name();
  };
  expect_in_place(bn);
  expect_in_place(act);
}

TEST(ForwardInto, ShapeMismatchThrows) {
  BatchNorm bn("bn", {1.0f, 1.0f}, {0.0f, 0.0f});
  Workspace workspace = test_workspace();
  Tensor input(FeatureShape{2, 3, 3});
  Tensor wrong(FeatureShape{2, 3, 4});
  EXPECT_THROW(bn.forward_into(input, wrong, workspace), CheckError);
}

TEST(ResidualAddInto, MatchesElementwiseSumAndAliases) {
  const Tensor a = random_activation({3, 4, 4}, 73);
  const Tensor b = random_activation({3, 4, 4}, 74);
  Tensor expected(a.shape());
  for (std::size_t i = 0; i < expected.data().size(); ++i) {
    expected.data()[i] = a.data()[i] + b.data()[i];
  }
  Tensor out(a.shape());
  residual_add_into(a, b, out);
  EXPECT_TRUE(bit_identical(out, expected));
  // Aliased form: out == a, the in-place residual the block uses.
  Tensor aliased = a;
  TensorView view(aliased);
  residual_add_into(view, b, view);
  EXPECT_TRUE(bit_identical(aliased, expected));
}

}  // namespace
}  // namespace bkc::bnn
