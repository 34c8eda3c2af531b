// The central functional property of the BNN engine: the xnor/popcount
// convolution agrees EXACTLY with the reference float convolution on
// +/-1 operands, for every geometry the models use.

#include "bnn/bconv.h"

#include <gtest/gtest.h>

#include "support/support.h"

#include "tensor/tensor.h"
#include "util/check.h"
#include "util/rng.h"

namespace bkc::bnn {
namespace {

using test::random_pm1_tensor;
using test::random_pm1_weights;

void expect_matches_reference(const FeatureShape& in_shape,
                              const KernelShape& k_shape,
                              ConvGeometry geometry, std::uint64_t seed) {
  Rng rng(seed);
  const Tensor input = random_pm1_tensor(in_shape, rng);
  const WeightTensor weights = random_pm1_weights(k_shape, rng);
  const Tensor expected =
      reference_conv2d(input, weights, geometry, /*pad_value=*/-1.0f);
  const Tensor actual =
      binary_conv2d(pack_feature(input, geometry.padding),
                    pack_kernel(weights), geometry);
  ASSERT_EQ(actual.shape(), expected.shape());
  for (std::size_t i = 0; i < actual.data().size(); ++i) {
    ASSERT_FLOAT_EQ(actual.data()[i], expected.data()[i]) << "at " << i;
  }
}

TEST(BinaryConv, Matches3x3SameConv) {
  expect_matches_reference({16, 6, 6}, {8, 16, 3, 3},
                           {.stride = 1, .padding = 1}, 11);
}

TEST(BinaryConv, Matches3x3Stride2) {
  expect_matches_reference({32, 8, 8}, {4, 32, 3, 3},
                           {.stride = 2, .padding = 1}, 13);
}

TEST(BinaryConv, Matches1x1) {
  expect_matches_reference({64, 5, 5}, {10, 64, 1, 1},
                           {.stride = 1, .padding = 0}, 17);
}

TEST(BinaryConv, MatchesNonWordMultipleChannels) {
  // 70 channels: exercises the tail-mask path.
  expect_matches_reference({70, 4, 4}, {3, 70, 3, 3},
                           {.stride = 1, .padding = 1}, 19);
}

TEST(BinaryConv, MatchesManyWordChannels) {
  // 192 channels = 3 full words.
  expect_matches_reference({192, 3, 3}, {2, 192, 3, 3},
                           {.stride = 1, .padding = 1}, 23);
}

TEST(BinaryConv, MatchesValidConvNoPadding) {
  expect_matches_reference({8, 7, 7}, {5, 8, 3, 3},
                           {.stride = 1, .padding = 0}, 29);
}

// Property sweep over geometries and channel counts.
struct ConvCase {
  std::int64_t channels;
  std::int64_t size;
  std::int64_t out_channels;
  std::int64_t kernel;
  std::int64_t stride;
  std::int64_t padding;
};

class BinaryConvProperty : public ::testing::TestWithParam<ConvCase> {};

TEST_P(BinaryConvProperty, AgreesWithReference) {
  const auto& c = GetParam();
  expect_matches_reference(
      {c.channels, c.size, c.size},
      {c.out_channels, c.channels, c.kernel, c.kernel},
      {.stride = c.stride, .padding = c.padding}, 1000 + c.channels);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BinaryConvProperty,
    ::testing::Values(ConvCase{1, 5, 1, 3, 1, 1}, ConvCase{2, 5, 3, 3, 1, 1},
                      ConvCase{63, 6, 2, 3, 1, 1}, ConvCase{64, 6, 2, 3, 1, 1},
                      ConvCase{65, 6, 2, 3, 1, 1}, ConvCase{127, 4, 2, 3, 2, 1},
                      ConvCase{128, 4, 2, 1, 1, 0},
                      ConvCase{33, 9, 4, 3, 3, 1}));

TEST(BinaryConv, DotProductRangeBound) {
  // |dot| <= K and dot has the same parity as K.
  Rng rng(31);
  const Tensor input = random_pm1_tensor({24, 5, 5}, rng);
  const WeightTensor weights = random_pm1_weights({6, 24, 3, 3}, rng);
  const Tensor out = binary_conv2d(pack_feature(input, 1),
                                   pack_kernel(weights),
                                   {.stride = 1, .padding = 1});
  const std::int64_t receptive = 24 * 9;
  for (float v : out.data()) {
    EXPECT_LE(std::abs(v), static_cast<float>(receptive));
    EXPECT_EQ((static_cast<std::int64_t>(v) - receptive) % 2, 0);
  }
}

TEST(BinaryConv, AllAgreeGivesK) {
  Tensor input(FeatureShape{8, 3, 3});
  for (auto& v : input.data()) v = 1.0f;
  WeightTensor w(KernelShape{1, 8, 3, 3});
  for (auto& v : w.data()) v = 1.0f;
  const Tensor out = binary_conv2d(pack_feature(input), pack_kernel(w),
                                   {.stride = 1, .padding = 0});
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), 72.0f);  // 8 * 9
}

TEST(BinaryConv, ChannelMismatchThrows) {
  PackedFeature f(FeatureShape{8, 4, 4});
  PackedKernel k(KernelShape{2, 16, 3, 3});
  EXPECT_THROW(binary_conv2d(f, k, {.stride = 1, .padding = 1}), CheckError);
}

TEST(BinaryConv, RingDifferentFromPaddingThrows) {
  // The fast kernels read padded taps from the input's zero ring, so a
  // ring narrower or wider than the geometry's padding is rejected.
  const PackedKernel k(KernelShape{2, 8, 3, 3});
  for (std::int64_t ring : {0, 2}) {
    const PackedFeature f(FeatureShape{8, 4, 4}, ring);
    EXPECT_THROW(binary_conv2d(f, k, {.stride = 1, .padding = 1}),
                 CheckError)
        << "ring " << ring;
  }
  const PackedFeature ringed(FeatureShape{8, 4, 4}, 1);
  EXPECT_THROW(binary_conv2d(ringed, k, {.stride = 1, .padding = 0}),
               CheckError);
  EXPECT_NO_THROW(binary_conv2d(ringed, k, {.stride = 1, .padding = 1}));
}

TEST(BinaryConv, WordOpAccounting) {
  const FeatureShape in{128, 8, 8};
  const KernelShape k{4, 128, 3, 3};
  // 4 out-ch * 8*8 pixels * 9 positions * 2 words.
  EXPECT_EQ(binary_conv2d_word_ops(in, k, {.stride = 1, .padding = 1}),
            4 * 64 * 9 * 2);
}

}  // namespace
}  // namespace bkc::bnn
