// The dispatch contract of bnn/bconv_kernels.h: every registered
// convolution kernel (AVX2 on hosts that have it) is bit-identical to
// the scalar reference for every shape, geometry and thread count - not
// approximately equal, memcmp-equal. The sweep is deliberately hostile:
// odd widths, channel counts straddling the 64-lane tail mask, strides
// and paddings on planes so small that every output pixel reads the
// zero ring, 1x1 next to 3x3.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "bnn/bconv.h"
#include "bnn/bconv_kernels.h"
#include "bnn/bitpack.h"
#include "support/support.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace bkc::bnn {
namespace {

const int kThreadCounts[] = {1, 2, 4, 7};

struct ConvCase {
  std::int64_t channels, height, width, out_channels;
  std::int64_t kernel, stride, padding;

  std::string label() const {
    std::string s = "c";
    s += std::to_string(channels);
    s += '_';
    s += std::to_string(height);
    s += 'x';
    s += std::to_string(width);
    s += "_o";
    s += std::to_string(out_channels);
    s += "_k";
    s += std::to_string(kernel);
    s += 's';
    s += std::to_string(stride);
    s += 'p';
    s += std::to_string(padding);
    return s;
  }
};

// ~100 shapes. Channel counts bracket every word boundary the tail mask
// can straddle (63/64/65, 96 = word + half, 127/128/129, multi-word);
// spatial extents mix odd/even and include inputs so small that no
// output pixel has its whole window inside the logical map.
std::vector<ConvCase> conv_cases() {
  std::vector<ConvCase> cases;
  const std::int64_t tail_channels[] = {1,  17,  63,  64,  65, 96,
                                        127, 128, 129, 192, 320};
  // 3x3 "same" convs over every tail-mask regime, odd spatial sizes.
  for (std::int64_t c : tail_channels) {
    cases.push_back({c, 7, 5, 4, 3, 1, 1});
  }
  // The same channels with stride 2 (uneven output grids).
  for (std::int64_t c : tail_channels) {
    cases.push_back({c, 9, 7, 3, 3, 2, 1});
  }
  // 1x1 convs (no spatial window, pure channel reduction).
  for (std::int64_t c : {1, 63, 64, 65, 96, 129, 256}) {
    cases.push_back({c, 5, 7, 6, 1, 1, 0});
    cases.push_back({c, 4, 4, 2, 1, 2, 0});
  }
  // Valid (padding 0) and wide (padding 2) 3x3 windows.
  for (std::int64_t c : {33, 64, 96, 128}) {
    cases.push_back({c, 8, 6, 5, 3, 1, 0});
    cases.push_back({c, 6, 8, 5, 3, 1, 2});
  }
  // Degenerate spatial extents: no or one window fully inside the
  // map, a single-pixel plane, stride larger than the kernel.
  cases.push_back({70, 2, 2, 3, 3, 1, 1});  // every window touches the ring
  cases.push_back({70, 3, 3, 3, 3, 1, 1});  // one window inside the map
  cases.push_back({64, 1, 1, 4, 1, 1, 0});  // single pixel, 1x1
  cases.push_back({64, 3, 9, 4, 3, 4, 1});  // stride > kernel
  cases.push_back({100, 11, 3, 2, 3, 1, 1});  // tall and narrow
  cases.push_back({320, 3, 3, 8, 3, 1, 1});  // 5 words per pixel
  // The paper model's late maps, 7x7 (224 input) down to 1x1, at 512
  // and 1024 channels: 8 and 16 words per pixel, the generic
  // BKC_WORDS_SWITCH instantiation. Stride 1 and 2, ring 0/1/2.
  for (std::int64_t c : {512, 1024}) {
    for (std::int64_t size : {1, 2, 4, 7}) {
      cases.push_back({c, size, size, 3, 1, 1, 0});
      for (std::int64_t stride : {1, 2}) {
        for (std::int64_t padding : {0, 1, 2}) {
          if (size + 2 * padding < 3) continue;  // no 3x3 window fits
          cases.push_back({c, size, size, 3, 3, stride, padding});
        }
      }
    }
  }
  return cases;
}

void seeded_inputs(const ConvCase& c, std::uint64_t seed,
                   PackedFeature& feature, PackedKernel& kernel) {
  Rng rng(seed);
  const Tensor input = test::random_pm1_tensor(
      {c.channels, c.height, c.width}, rng);
  const WeightTensor weights = test::random_pm1_weights(
      {c.out_channels, c.channels, c.kernel, c.kernel}, rng);
  feature = pack_feature(input, c.padding);
  kernel = pack_kernel(weights);
}

void expect_bit_identical(const Tensor& a, const Tensor& b,
                          const std::string& label) {
  ASSERT_EQ(a.shape(), b.shape()) << label;
  ASSERT_EQ(std::memcmp(a.data().data(), b.data().data(),
                        a.data().size_bytes()),
            0)
      << label;
}

TEST(BconvSimd, RegistryHasScalarFirstAndUniqueNames) {
  const auto kernels = conv_kernels();
  ASSERT_GE(kernels.size(), 1u);
  EXPECT_STREQ(kernels.front().name, "scalar");
  EXPECT_EQ(kernels.front().fn, scalar_conv_kernel().fn);
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    for (std::size_t j = i + 1; j < kernels.size(); ++j) {
      EXPECT_STRNE(kernels[i].name, kernels[j].name);
    }
  }
}

TEST(BconvSimd, ForcedScalarPinsTheReference) {
  simd::ScopedForceScalar force;
  EXPECT_TRUE(simd::scalar_forced());
  EXPECT_STREQ(active_conv_kernel().name, "scalar");
}

TEST(BconvSimd, OverrideWinsAndRestores) {
  const auto kernels = conv_kernels();
  const ConvKernelInfo& widest = kernels.back();
  const char* before = active_conv_kernel().name;
  {
    ScopedConvKernelOverride pin(widest);
    EXPECT_STREQ(active_conv_kernel().name, widest.name);
    // An override outranks even a scalar force: the suites below rely
    // on pinning the AVX2 kernel while everything else stays scalar.
    simd::ScopedForceScalar force;
    EXPECT_STREQ(active_conv_kernel().name, widest.name);
  }
  EXPECT_STREQ(active_conv_kernel().name, before);
}

TEST(BconvSimd, EveryKernelBitIdenticalToScalarAcrossShapesAndThreads) {
  std::uint64_t seed = 0x51D00000;
  for (const ConvCase& c : conv_cases()) {
    PackedFeature feature;
    PackedKernel kernel;
    seeded_inputs(c, seed++, feature, kernel);
    const ConvGeometry geometry{.stride = c.stride, .padding = c.padding};

    Tensor reference;
    {
      ScopedConvKernelOverride pin(scalar_conv_kernel());
      ScopedNumThreads threads(1);
      reference = binary_conv2d(feature, kernel, geometry);
    }
    for (const ConvKernelInfo& info : conv_kernels()) {
      ScopedConvKernelOverride pin(info);
      for (int threads : kThreadCounts) {
        ScopedNumThreads scoped(threads);
        const Tensor out = binary_conv2d(feature, kernel, geometry);
        expect_bit_identical(out, reference,
                             c.label() + " kernel=" + info.name +
                                 " threads=" + std::to_string(threads));
      }
    }
  }
}

TEST(BconvSimd, ActiveDispatchMatchesForcedScalarOnAnchorShapes) {
  // Whatever active_conv_kernel() picks on this host (AVX2 where
  // available, scalar elsewhere), the engine-visible results must equal
  // the forced-scalar run - the user-facing form of the contract.
  for (const ConvCase& c : {ConvCase{96, 8, 8, 6, 3, 1, 1},
                            ConvCase{130, 6, 10, 4, 1, 1, 0}}) {
    PackedFeature feature;
    PackedKernel kernel;
    seeded_inputs(c, 0xA11C40 + c.channels, feature, kernel);
    const ConvGeometry geometry{.stride = c.stride, .padding = c.padding};
    Tensor forced;
    {
      simd::ScopedForceScalar force;
      forced = binary_conv2d(feature, kernel, geometry);
    }
    const Tensor dispatched = binary_conv2d(feature, kernel, geometry);
    expect_bit_identical(dispatched, forced, c.label());
  }
}

}  // namespace
}  // namespace bkc::bnn
