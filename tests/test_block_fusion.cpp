// The fused block contract: BasicBlock::forward_into runs batch norm,
// the residual shortcut and RPReLU inside its binary convs' channel
// chunks (ConvEpilogue), and must be memcmp-equal to the block's own
// layers run one pass at a time in the unfused order - conv, BN,
// residual (2x2-pooled at stride 2), RPReLU; then per 1x1 conv, BN and
// the y residual into its channel half; then RPReLU over the output.
// The sweep covers stride 1/2, expanding and non-expanding blocks,
// channel counts around the 64-lane word, thread counts 1/2/4/7 and
// both the dispatched and the forced-scalar kernels, on inputs that
// put exact +-0 into the block and values a few ulps from shift_in
// through the RPReLU select.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "bnn/bconv.h"
#include "bnn/bconv_kernels.h"
#include "bnn/layers.h"
#include "bnn/memory_plan.h"
#include "bnn/reactnet.h"
#include "bnn/weights.h"
#include "support/support.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace bkc::bnn {
namespace {

const int kThreadCounts[] = {1, 2, 4, 7};

void expect_bit_identical(const Tensor& a, const Tensor& b,
                          const std::string& label) {
  ASSERT_EQ(a.shape(), b.shape()) << label;
  EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(),
                        a.data().size_bytes()),
            0)
      << label;
}

/// The 3x3 half of the block up to the RPReLU select, unfused:
/// BN(conv3x3(x)) + shortcut(x).
Tensor first_half_pre_activation(const BasicBlock& block,
                                 const Tensor& input, Workspace& workspace) {
  Tensor y(block.conv3x3().output_shape(input.shape()));
  block.conv3x3().forward_into(input, y, workspace);
  block.bn1().forward_into(y, y, workspace);
  if (block.config().stride == 2) {
    const AvgPool2x2 pool;
    Tensor shortcut(pool.output_shape(input.shape()));
    pool.forward_into(input, shortcut, workspace);
    residual_add_into(y, shortcut, y);
  } else {
    residual_add_into(y, input, y);
  }
  return y;
}

/// The reference: the block's layers one pass at a time, in the order
/// the block ran them before fusion.
Tensor unfused_block(const BasicBlock& block, const Tensor& input) {
  Workspace workspace(MemoryPlan{});
  Tensor y = first_half_pre_activation(block, input, workspace);
  block.rprelu1().forward_into(y, y, workspace);
  Tensor out(block.output_shape(input.shape()));
  const std::int64_t in = block.config().in_channels;
  const std::vector<const BinaryConv2d*> convs = block.conv1x1s();
  const std::vector<const BatchNorm*> norms = block.bn2s();
  for (std::size_t i = 0; i < convs.size(); ++i) {
    TensorView z = TensorView(out).channels(static_cast<std::int64_t>(i) * in,
                                            in);
    convs[i]->forward_into(y, z, workspace);
    norms[i]->forward_into(z, z, workspace);
    residual_add_into(z, y, z);
  }
  block.rprelu2().forward_into(out, out, workspace);
  return out;
}

/// The block's own forward path, in a workspace holding exactly its
/// one scratch tensor, y.
Tensor fused_block(const BasicBlock& block, const Tensor& input) {
  const std::int64_t y_floats =
      block.conv3x3().output_shape(input.shape()).size();
  Workspace workspace(MemoryPlan{
      .scratch_bytes = static_cast<std::int64_t>(Arena::aligned_size(
          static_cast<std::size_t>(y_floats) * sizeof(float)))});
  Tensor out(block.output_shape(input.shape()));
  block.forward_into(input, out, workspace);
  return out;
}

/// A block input that stresses the select. Some elements are exact +0
/// and -0 (both pack as +1). Then, on the final sign pattern, the
/// shortcut elements are re-sized - keeping every sign, so the convs
/// see the same bits - so that BN(conv3x3(x)) + shortcut lands on
/// shift_in exactly or one ulp either side. Returns the number of
/// elements whose pre-activation v = that sum - shift_in is exactly 0.
Tensor select_stress_input(const BasicBlock& block, const FeatureShape& shape,
                           std::uint64_t seed, int& exact_zero_hits) {
  WeightGenerator gen(seed);
  Tensor x = gen.sample_activation(shape);
  for (std::int64_t i = 0; i < x.size(); i += 7) {
    x.data()[static_cast<std::size_t>(i)] = (i / 7) % 2 == 0 ? 0.0f : -0.0f;
  }
  const Tensor signs = x;
  Workspace workspace(MemoryPlan{});
  Tensor t(block.conv3x3().output_shape(shape));
  block.conv3x3().forward_into(x, t, workspace);
  block.bn1().forward_into(t, t, workspace);

  const std::span<const float> shift_in = block.rprelu1().shift_in();
  const std::int64_t stride = block.config().stride;
  std::int64_t k = 0;
  for (std::int64_t c = 0; c < t.shape().channels; ++c) {
    for (std::int64_t y = 0; y < t.shape().height; ++y) {
      for (std::int64_t xx = 0; xx < t.shape().width; ++xx, ++k) {
        if (k % 5 == 4) continue;  // leave some elements as sampled
        float r = shift_in[static_cast<std::size_t>(c)] - t.at(c, y, xx);
        if (k % 5 == 1) r = std::nextafter(r, 1e30f);
        if (k % 5 == 2) r = std::nextafter(r, -1e30f);
        // The shortcut element: x itself, or the top-left of the 2x2
        // window, sized so the window's average is r.
        float& target = x.at(c, stride * y, stride * xx);
        float value = r;
        if (stride == 2) {
          const float rest = x.at(c, 2 * y, 2 * xx + 1) +
                             x.at(c, 2 * y + 1, 2 * xx) +
                             x.at(c, 2 * y + 1, 2 * xx + 1);
          value = 4.0f * r - rest;
        }
        if ((value >= 0.0f) == (target >= 0.0f)) target = value;
      }
    }
  }
  // The re-sized elements kept their signs, so the convs see the bits
  // t was computed from.
  EXPECT_TRUE(std::ranges::equal(pack_feature(signs).words(),
                                 pack_feature(x).words()));
  const Tensor pre = first_half_pre_activation(block, x, workspace);
  exact_zero_hits = 0;
  for (std::int64_t c = 0; c < pre.shape().channels; ++c) {
    for (std::int64_t y = 0; y < pre.shape().height; ++y) {
      for (std::int64_t xx = 0; xx < pre.shape().width; ++xx) {
        if (pre.at(c, y, xx) - shift_in[static_cast<std::size_t>(c)] ==
            0.0f) {
          ++exact_zero_hits;
        }
      }
    }
  }
  return x;
}

struct BlockCase {
  std::int64_t channels, stride;
  bool expand;
  std::int64_t height, width;

  /// Built by appends: GCC 12 flags a chain of operator+ on
  /// temporaries here with a false-positive -Werror=restrict inside
  /// char_traits.h.
  std::string label() const {
    std::string text = "c";
    text += std::to_string(channels);
    text += "_s";
    text += std::to_string(stride);
    text += expand ? "_expand_" : "_same_";
    text += std::to_string(height);
    text += "x";
    text += std::to_string(width);
    return text;
  }
};

std::vector<BlockCase> block_cases() {
  std::vector<BlockCase> cases;
  for (std::int64_t channels : {4, 32, 63, 64, 65, 128}) {
    for (bool expand : {false, true}) {
      // Stride 1: an odd plane (vector steps plus a scalar tail) and
      // one smaller than a single vector step.
      cases.push_back({channels, 1, expand, 9, 13});
      cases.push_back({channels, 1, expand, 2, 3});
      // Stride 2: output rows of 11 (one pooled vector step plus a
      // tail) and of 2 (tail only).
      cases.push_back({channels, 2, expand, 10, 22});
      cases.push_back({channels, 2, expand, 4, 4});
    }
  }
  return cases;
}

TEST(BlockFusion, FusedBlockMatchesUnfusedLayersBitForBit) {
  std::uint64_t seed = 0xB10C0000;
  int exact_zero_hits = 0;
  for (const BlockCase& c : block_cases()) {
    WeightGenerator weights(seed++);
    const BasicBlock block(
        "block",
        BlockConfig{c.channels, c.expand ? 2 * c.channels : c.channels,
                    c.stride},
        weights, SequenceDistribution::uniform());
    int hits = 0;
    const Tensor input = select_stress_input(
        block, {c.channels, c.height, c.width}, seed++, hits);
    exact_zero_hits += hits;
    Tensor reference;
    {
      simd::ScopedForceScalar force;
      reference = unfused_block(block, input);
    }
    for (bool forced : {false, true}) {
      std::optional<simd::ScopedForceScalar> force;
      if (forced) force.emplace();
      for (int threads : kThreadCounts) {
        ScopedNumThreads scoped(threads);
        expect_bit_identical(fused_block(block, input), reference,
                             c.label() + (forced ? " scalar" : " dispatched") +
                                 " threads=" + std::to_string(threads));
      }
    }
  }
  // The stress inputs did reach the select's boundary.
  EXPECT_GT(exact_zero_hits, 100);
}

TEST(BlockFusion, EveryKernelEpilogueMatchesLayersOnSpecialValues) {
  // Hand-set parameters put exact -0 (scale -1 times a zero dot
  // product, bias -0, residual -0, shift_in +0), +0, NaN and +-inf
  // through every registered kernel's epilogue, identity and pooled.
  const std::int64_t in_channels = 64;  // even K: zero dot products occur
  for (bool pooled : {false, true}) {
    const FeatureShape in_shape{in_channels, 5, 11};
    const FeatureShape out_shape{6, 5, 11};
    const FeatureShape res_shape{6, pooled ? 10 : 5, pooled ? 22 : 11};
    Rng rng(pooled ? 7 : 8);
    const PackedFeature packed =
        pack_feature(test::random_pm1_tensor(in_shape, rng), 0);
    const PackedKernel kernel =
        pack_kernel(test::random_pm1_weights({6, in_channels, 1, 1}, rng));
    Tensor residual = test::random_pm1_tensor(res_shape, rng);
    const float specials[] = {-0.0f, 0.0f,
                              std::numeric_limits<float>::quiet_NaN(),
                              std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity()};
    for (std::int64_t i = 0; i < residual.size(); ++i) {
      float& r = residual.data()[static_cast<std::size_t>(i)];
      // Channels 0-2: mostly -0 so a zero dot product yields -0; the
      // rest a scatter of every special value.
      if (i < residual.size() / 2) {
        r = i % 11 == 0 ? specials[(i / 11) % 5] : -0.0f;
      } else if (i % 5 == 0) {
        r = specials[(i / 5) % 5];
      }
    }
    const BatchNorm bn("bn", {-1.0f, -1.0f, 1.0f, 0.5f, -0.25f, 2.0f},
                       {-0.0f, -0.0f, 0.0f, 0.1f, -0.3f, 1.0f});
    // Eight RPReLU channels read at offset 2.
    const RPReLU act("act", {9.0f, 9.0f, 0.0f, 0.0f, 0.0f, 0.25f, -0.5f, 1.0f},
                     {0.5f, 0.5f, 0.25f, -0.5f, 0.125f, 0.2f, 0.1f, 0.3f},
                     {1.0f, 1.0f, 0.0f, -0.0f, 0.5f, -0.25f, 0.0f, 2.0f});
    Workspace workspace(MemoryPlan{});
    Tensor reference(out_shape);
    binary_conv2d_into(packed, kernel, {1, 0}, reference);
    bn.forward_into(reference, reference, workspace);
    if (pooled) {
      const AvgPool2x2 pool;
      Tensor shortcut(out_shape);
      pool.forward_into(residual, shortcut, workspace);
      residual_add_into(reference, shortcut, reference);
    } else {
      residual_add_into(reference, residual, reference);
    }
    // The RPReLU layer over the slice its offset selects.
    const RPReLU slice("slice",
                       std::vector<float>(act.shift_in().begin() + 2,
                                          act.shift_in().end()),
                       std::vector<float>(act.slope().begin() + 2,
                                          act.slope().end()),
                       std::vector<float>(act.shift_out().begin() + 2,
                                          act.shift_out().end()));
    slice.forward_into(reference, reference, workspace);

    const ConvEpilogue epilogue{.bn_scale = bn.scale(),
                                .bn_bias = bn.bias(),
                                .residual = residual,
                                .pool_residual = pooled,
                                .shift_in = act.shift_in(),
                                .slope = act.slope(),
                                .shift_out = act.shift_out(),
                                .act_offset = 2};
    for (const ConvKernelInfo& info : conv_kernels()) {
      ScopedConvKernelOverride pin(info);
      for (int threads : kThreadCounts) {
        ScopedNumThreads scoped(threads);
        Tensor fused(out_shape);
        binary_conv2d_into(packed, kernel, {1, 0}, fused, &epilogue);
        expect_bit_identical(fused, reference,
                             std::string(info.name) +
                                 (pooled ? " pooled" : " identity") +
                                 " threads=" + std::to_string(threads));
      }
    }
  }
}

TEST(BlockFusion, EpilogueShapesAreChecked) {
  const FeatureShape in_shape{8, 4, 4};
  Rng rng(3);
  const PackedFeature packed =
      pack_feature(test::random_pm1_tensor(in_shape, rng), 0);
  const PackedKernel kernel =
      pack_kernel(test::random_pm1_weights({2, 8, 1, 1}, rng));
  const std::vector<float> two(2, 1.0f);
  Tensor identity({2, 4, 4});
  Tensor odd({2, 9, 9});
  Tensor out({2, 4, 4});
  ConvEpilogue good{.bn_scale = two,
                    .bn_bias = two,
                    .residual = identity,
                    .shift_in = two,
                    .slope = two,
                    .shift_out = two};
  EXPECT_NO_THROW(binary_conv2d_into(packed, kernel, {1, 0}, out, &good));

  ConvEpilogue bad = good;
  bad.pool_residual = true;  // a 4x4 residual is not twice the output
  EXPECT_THROW(binary_conv2d_into(packed, kernel, {1, 0}, out, &bad),
               CheckError);
  bad.residual = odd;  // one past twice: the pooled read would overrun
  EXPECT_THROW(binary_conv2d_into(packed, kernel, {1, 0}, out, &bad),
               CheckError);
  bad = good;
  bad.act_offset = 1;  // two channels at offset 1 need three parameters
  EXPECT_THROW(binary_conv2d_into(packed, kernel, {1, 0}, out, &bad),
               CheckError);
  bad = good;
  bad.bn_scale = std::span<const float>(two).first(1);
  EXPECT_THROW(binary_conv2d_into(packed, kernel, {1, 0}, out, &bad),
               CheckError);
  bad = good;
  bad.residual = out;  // reads the plane the conv is writing
  EXPECT_THROW(binary_conv2d_into(packed, kernel, {1, 0}, out, &bad),
               CheckError);
}

TEST(BlockFusion, StrideTwoBlockOnOddInputThrows) {
  // The pooled shortcut reads whole 2x2 windows, so an odd map must
  // stay a CheckError (the unfused AvgPool2x2 raised it) and never
  // read past the plane.
  WeightGenerator weights(5);
  const BasicBlock block("block", BlockConfig{8, 16, 2}, weights,
                         SequenceDistribution::uniform());
  WeightGenerator gen(6);
  for (const FeatureShape shape :
       {FeatureShape{8, 7, 8}, FeatureShape{8, 8, 7}, FeatureShape{8, 9, 9}}) {
    const Tensor input = gen.sample_activation(shape);
    Tensor out(block.output_shape(shape));
    Workspace workspace(MemoryPlan{.scratch_bytes = 4096});
    for (int threads : {1, 4}) {
      ScopedNumThreads scoped(threads);
      EXPECT_THROW(block.forward_into(input, out, workspace), CheckError)
          << shape.to_string() << " threads=" << threads;
    }
  }

  // The same through a whole model: a 30x30 input leaves a 15x15 map
  // (stride-2 stem) for the first stride-2 block.
  ReActNetConfig config = test::tiny_config(7);
  config.input_size = 30;
  const ReActNet model(config);
  const Tensor image = gen.sample_activation(model.input_shape());
  Workspace workspace(model.memory_plan());
  Tensor scores(FeatureShape{config.num_classes, 1, 1});
  for (int threads : {1, 4}) {
    ScopedNumThreads scoped(threads);
    EXPECT_THROW(model.forward_into(image, scores, workspace), CheckError)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace bkc::bnn
