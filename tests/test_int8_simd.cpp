// The dispatch contract of the int8 head (bnn/int8_kernels.h): on a CPU
// with AVX2, Int8Conv2d and Int8Linear give memcmp-equal results to
// their forced-scalar reference, at every thread count. The conv sweep
// covers stride 1 and 2, padding 0 and 1, 1x1 and 3x3 kernels, 1/3/4/5
// input channels and every output width from 1 to 19 (each tail of the
// 16-pixel step and each phase-row edge), over odd heights. Every conv
// case runs in a workspace sized to exactly its own plane, so the plane
// is the arena's last bytes and a vector load past it is a sanitizer
// report. Saturated inputs drive the accumulators to their bounds.
// Without AVX2 both sides run the scalar loop and the suite still
// passes.

#include <gtest/gtest.h>

#include <cstring>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "bnn/int8_kernels.h"
#include "bnn/layers.h"
#include "bnn/memory_plan.h"
#include "bnn/weights.h"
#include "util/arena.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace bkc::bnn {
namespace {

const int kThreadCounts[] = {1, 2, 4, 7};

/// A workspace whose arena is exactly the conv's plane requirement.
Workspace exact_workspace(const FeatureShape& in, const KernelShape& kernel,
                          ConvGeometry geometry) {
  const auto bytes = static_cast<std::int64_t>(Arena::aligned_size(
      static_cast<std::size_t>(int8_conv_plane(in, kernel, geometry).bytes())));
  return Workspace(MemoryPlan{.scratch_bytes = bytes});
}

Tensor run_conv(const Int8Conv2d& conv, const Tensor& input,
                const KernelShape& kernel, ConvGeometry geometry) {
  Workspace workspace = exact_workspace(input.shape(), kernel, geometry);
  Tensor out(conv.output_shape(input.shape()));
  conv.forward_into(input, out, workspace);
  // The plane is the only allocation, and it filled the arena.
  EXPECT_EQ(workspace.arena().high_water(), workspace.arena().capacity());
  return out;
}

Tensor run_linear(const Int8Linear& fc, const Tensor& input) {
  Workspace workspace(MemoryPlan{
      .scratch_bytes = static_cast<std::int64_t>(
          Arena::aligned_size(static_cast<std::size_t>(input.size())))});
  Tensor out(fc.output_shape(input.shape()));
  fc.forward_into(input, out, workspace);
  return out;
}

/// "name1value1 name2value2 ..." (built with += to keep GCC 12's
/// -Wrestrict false positive on string concatenation quiet).
std::string describe(
    std::initializer_list<std::pair<const char*, std::int64_t>> fields) {
  std::string out;
  for (const auto& [name, value] : fields) {
    if (!out.empty()) out += ' ';
    out += name;
    out += std::to_string(value);
  }
  return out;
}

void expect_bit_identical(const Tensor& a, const Tensor& b,
                          const std::string& label) {
  ASSERT_EQ(a.shape(), b.shape()) << label;
  EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(),
                        a.data().size_bytes()),
            0)
      << label;
}

/// The dispatched conv at 1/2/4/7 threads against the forced-scalar
/// reference.
void expect_conv_matches_scalar(const Int8Conv2d& conv, const Tensor& input,
                                const KernelShape& kernel,
                                ConvGeometry geometry,
                                const std::string& label) {
  Tensor reference;
  {
    simd::ScopedForceScalar force;
    reference = run_conv(conv, input, kernel, geometry);
  }
  for (int threads : kThreadCounts) {
    ScopedNumThreads scoped(threads);
    expect_bit_identical(run_conv(conv, input, kernel, geometry), reference,
                         label + " " + describe({{"threads=", threads}}));
  }
}

void expect_linear_matches_scalar(const Int8Linear& fc, const Tensor& input,
                                  const std::string& label) {
  Tensor reference;
  {
    simd::ScopedForceScalar force;
    reference = run_linear(fc, input);
  }
  for (int threads : kThreadCounts) {
    ScopedNumThreads scoped(threads);
    expect_bit_identical(run_linear(fc, input), reference,
                         label + " " + describe({{"threads=", threads}}));
  }
}

TEST(Int8Simd, ConvBitIdenticalAcrossGeometriesWidthsAndThreads) {
  WeightGenerator gen(0x1A78);
  int cases = 0;
  for (std::int64_t stride : {1, 2}) {
    for (std::int64_t padding : {0, 1}) {
      for (std::int64_t k : {1, 3}) {
        for (std::int64_t channels : {1, 3, 4, 5}) {
          for (std::int64_t out_w = 1; out_w <= 19; ++out_w) {
            // An input width giving out_w columns; for stride 2 the
            // extra column alternates, so both parities of the padded
            // width (and so both phase-row lengths) come up.
            const std::int64_t width =
                (out_w - 1) * stride + k - 2 * padding + out_w % stride;
            if (width < 1) continue;
            const std::int64_t height = out_w % 2 == 0 ? 5 : 7;
            const KernelShape kernel{3, channels, k, k};
            const ConvGeometry geometry{.stride = stride,
                                        .padding = padding};
            const Int8Conv2d conv(
                "conv", gen.sample_float_weights(kernel, 0.5f),
                gen.sample_floats(3, 0.1f), geometry);
            const Tensor input =
                gen.sample_activation({channels, height, width});
            const std::string label = describe(
                {{"s", stride}, {"p", padding}, {"k", k}, {"c", channels},
                 {"w", width}, {"h", height}});
            ASSERT_EQ(conv.output_shape(input.shape()).width, out_w) << label;
            expect_conv_matches_scalar(conv, input, kernel, geometry, label);
            ++cases;
          }
        }
      }
    }
  }
  EXPECT_GT(cases, 500);
}

TEST(Int8Simd, PaperStemBitIdentical) {
  // The paper's stem at 224x224 input: 32 channels, 3x3 stride 2, a
  // 112-pixel output row of seven whole 16-pixel steps.
  WeightGenerator gen(0x57E4);
  const KernelShape kernel{32, 3, 3, 3};
  const ConvGeometry geometry{.stride = 2, .padding = 1};
  const Int8Conv2d conv("stem", gen.sample_float_weights(kernel, 0.3f),
                        gen.sample_floats(32, 0.1f), geometry);
  expect_conv_matches_scalar(conv, gen.sample_activation({3, 224, 224}),
                             kernel, geometry, "stem224");
}

TEST(Int8Simd, SaturatedConvReachesTheAccumulatorBound) {
  // Every input and weight is +-1 with a max of 1, so every tap
  // quantizes to +-127. All-positive operands put each interior pixel
  // at 27 * 127^2 = 435,483, the stem's bound; flipping the weights
  // gives the negative bound; random signs mix the two.
  const KernelShape kernel{2, 3, 3, 3};
  const ConvGeometry geometry{.stride = 2, .padding = 1};
  const FeatureShape in_shape{3, 9, 37};
  Rng rng(0x5A7);
  for (int variant = 0; variant < 3; ++variant) {
    std::vector<float> weights(static_cast<std::size_t>(kernel.size()),
                               variant == 1 ? -1.0f : 1.0f);
    Tensor input(in_shape);
    for (float& v : input.data()) v = 1.0f;
    if (variant == 2) {
      for (float& w : weights) w = rng.uniform() < 0.5 ? -1.0f : 1.0f;
      for (float& v : input.data()) v = rng.uniform() < 0.5 ? -1.0f : 1.0f;
    }
    const Int8Conv2d conv("sat", WeightTensor(kernel, weights), {0.0f, 0.0f},
                          geometry);
    const std::string label = describe({{"variant ", variant}});
    expect_conv_matches_scalar(conv, input, kernel, geometry, label);
    if (variant < 2) {
      // An interior pixel carries the full bound, dequantized by
      // (1/127)^2: 435,483 / 16,129 = 27 exactly up to float rounding.
      const Tensor out = run_conv(conv, input, kernel, geometry);
      const float scale = (1.0f / 127.0f) * (1.0f / 127.0f);
      const float bound =
          static_cast<float>(27 * 127 * 127) * scale * (variant == 1 ? -1 : 1);
      EXPECT_EQ(out.at(1, 2, 5), bound) << label;
    }
  }
}

TEST(Int8Simd, LinearBitIdenticalAcrossWidths) {
  WeightGenerator gen(0xFC);
  for (std::int64_t in : {1, 15, 16, 17, 33, 1024}) {
    const std::int64_t out = 7;
    const Int8Linear fc(
        "fc", in, out, gen.sample_floats(static_cast<std::size_t>(in * out)),
        gen.sample_floats(static_cast<std::size_t>(out), 0.1f));
    Tensor input(FeatureShape{in, 1, 1});
    for (float& v : input.data()) v = static_cast<float>(gen.rng().normal());
    expect_linear_matches_scalar(fc, input, describe({{"in=", in}}));
  }
}

TEST(Int8Simd, SaturatedLinearReachesTheAccumulatorBound) {
  // 1024 saturated features: |acc| = 1024 * 127^2 = 16,516,096, the
  // classifier's bound (below 2^24, so the float conversion is exact).
  const std::int64_t in = 1024;
  for (float sign : {1.0f, -1.0f}) {
    const Int8Linear fc("fc", in, 2,
                        std::vector<float>(static_cast<std::size_t>(2 * in),
                                           sign),
                        {0.0f, 0.5f});
    Tensor input(FeatureShape{in, 1, 1});
    for (float& v : input.data()) v = 1.0f;
    expect_linear_matches_scalar(fc, input,
                                 describe({{"sign=", std::int64_t(sign)}}));
    const Tensor out = run_linear(fc, input);
    const float scale = (1.0f / 127.0f) * (1.0f / 127.0f);
    EXPECT_EQ(out.at(0, 0, 0),
              static_cast<float>(1024 * 127 * 127) * sign * scale);
  }
}

TEST(Int8Simd, UndersizedWorkspaceThrows) {
  // One granule short of the plane: the arena refuses it rather than
  // the kernel reading past its end.
  WeightGenerator gen(3);
  const KernelShape kernel{4, 3, 3, 3};
  const ConvGeometry geometry{.stride = 2, .padding = 1};
  const Int8Conv2d conv("stem", gen.sample_float_weights(kernel),
                        std::vector<float>(4, 0.0f), geometry);
  const Tensor input = gen.sample_activation({3, 20, 20});
  const auto bytes = static_cast<std::int64_t>(Arena::aligned_size(
      static_cast<std::size_t>(
          int8_conv_plane(input.shape(), kernel, geometry).bytes())));
  Workspace workspace(MemoryPlan{
      .scratch_bytes = bytes - static_cast<std::int64_t>(Arena::kAlignment)});
  Tensor out(conv.output_shape(input.shape()));
  EXPECT_THROW(conv.forward_into(input, out, workspace), CheckError);
}

TEST(Int8Simd, PlaneRowsCoverTheLastStep) {
  // 3x224x224, 3x3 stride 2 pad 1: 226 padded columns split into two
  // 113-byte phase rows; the last 16-pixel step (columns 96..111) reads
  // up to position 111 + 1 = 112, the last byte of a phase row.
  const Int8ConvPlane stem = int8_conv_plane(
      {3, 224, 224}, {32, 3, 3, 3}, {.stride = 2, .padding = 1});
  EXPECT_EQ(stem.rows, 226);
  EXPECT_EQ(stem.stride, 2);
  EXPECT_EQ(stem.phase_width, 113);
  EXPECT_EQ(stem.bytes(), 3 * 226 * 226);
  // One output column still reads a whole step.
  const Int8ConvPlane narrow =
      int8_conv_plane({1, 3, 1}, {1, 1, 3, 3}, {.stride = 1, .padding = 1});
  EXPECT_EQ(narrow.phase_width, kInt8ConvStep + 2);
}

}  // namespace
}  // namespace bkc::bnn
