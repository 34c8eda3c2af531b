#include "bnn/bconv_kernels.h"

#include <atomic>
#include <bit>
#include <vector>

#include "util/simd.h"

namespace bkc::bnn {

namespace {

/// Matches (agreeing weight/input bit pairs) for one output pixel, with
/// full spatial-padding and channel-tail masking - the scalar reference
/// arithmetic. base_y/base_x are the top-left logical input coordinates
/// of the kernel window (may be negative or out of bounds; padded taps
/// contribute where the weight bit is 0). Reads logical pixels only, so
/// it never depends on the ring the fast kernels read.
std::int64_t scalar_pixel_matches(const PackedFeature& input,
                                  const PackedKernel& kernel, std::int64_t o,
                                  std::int64_t base_y, std::int64_t base_x) {
  const FeatureShape& in_shape = input.shape();
  const KernelShape& k_shape = kernel.shape();
  const std::int64_t wpp = input.words_per_pixel();
  const std::uint64_t tail = input.tail_mask();
  std::int64_t matches = 0;
  for (std::int64_t ky = 0; ky < k_shape.kernel_h; ++ky) {
    const std::int64_t iy = base_y + ky;
    const bool row_in = iy >= 0 && iy < in_shape.height;
    for (std::int64_t kx = 0; kx < k_shape.kernel_w; ++kx) {
      const std::int64_t ix = base_x + kx;
      const auto w = kernel.at(o, ky, kx);
      if (row_in && ix >= 0 && ix < in_shape.width) {
        const auto x = input.at(iy, ix);
        for (std::int64_t t = 0; t < wpp; ++t) {
          const std::uint64_t mask = (t == wpp - 1) ? tail : ~0ULL;
          const std::uint64_t agree =
              ~(w[static_cast<std::size_t>(t)] ^
                x[static_cast<std::size_t>(t)]) &
              mask;
          matches += std::popcount(agree);
        }
      } else {
        // Padding: input bits are 0 (-1); agreement happens where the
        // weight bit is 0 too.
        for (std::int64_t t = 0; t < wpp; ++t) {
          const std::uint64_t mask = (t == wpp - 1) ? tail : ~0ULL;
          matches += std::popcount(~w[static_cast<std::size_t>(t)] & mask);
        }
      }
    }
  }
  return matches;
}

/// The scalar epilogue (the formula in bconv.h, ConvEpilogue) over
/// output channel o's plane: the oracle of every wide kernel's vector
/// form, written to read like the unfused layers it replaces.
void apply_epilogue_scalar(const ConvEpilogue& epilogue, std::int64_t o,
                           TensorView out) {
  const FeatureShape& s = out.shape();
  const auto oc = static_cast<std::size_t>(o);
  const auto ac = static_cast<std::size_t>(epilogue.act_offset + o);
  const float scale = epilogue.bn_scale[oc];
  const float bias = epilogue.bn_bias[oc];
  const float shift_in = epilogue.shift_in[ac];
  const float slope = epilogue.slope[ac];
  const float shift_out = epilogue.shift_out[ac];
  const ConstTensorView& residual = epilogue.residual;
  for (std::int64_t y = 0; y < s.height; ++y) {
    for (std::int64_t x = 0; x < s.width; ++x) {
      float v = out.at(o, y, x) * scale + bias;
      if (epilogue.pool_residual) {
        v = v + 0.25f * (residual.at(o, 2 * y, 2 * x) +
                         residual.at(o, 2 * y, 2 * x + 1) +
                         residual.at(o, 2 * y + 1, 2 * x) +
                         residual.at(o, 2 * y + 1, 2 * x + 1));
      } else {
        v = v + residual.at(o, y, x);
      }
      v = v - shift_in;
      out.at(o, y, x) = (v > 0.0f ? v : slope * v) + shift_out;
    }
  }
}

// The seed's loop: masked scalar xnor+popcount over every pixel. This
// is the reference every other kernel is diffed against, so it must not
// share fast-path shortcuts: it ignores the ring and applies the padding
// term itself.
void conv_kernel_scalar(const PackedFeature& input, const PackedKernel& kernel,
                        ConvGeometry geometry, TensorView out,
                        std::int64_t o_begin, std::int64_t o_end,
                        const ConvEpilogue* epilogue) {
  const FeatureShape& out_shape = out.shape();
  const std::int64_t receptive = kernel.shape().receptive_size();
  for (std::int64_t o = o_begin; o < o_end; ++o) {
    for (std::int64_t oy = 0; oy < out_shape.height; ++oy) {
      const std::int64_t base_y = oy * geometry.stride - geometry.padding;
      for (std::int64_t ox = 0; ox < out_shape.width; ++ox) {
        const std::int64_t base_x = ox * geometry.stride - geometry.padding;
        const std::int64_t matches =
            scalar_pixel_matches(input, kernel, o, base_y, base_x);
        out.at(o, oy, ox) = static_cast<float>(2 * matches - receptive);
      }
    }
    if (epilogue != nullptr) apply_epilogue_scalar(*epilogue, o, out);
  }
}

constexpr ConvKernelInfo kScalarKernel{"scalar", conv_kernel_scalar};

#if defined(BKC_HAVE_AVX2)
constexpr ConvKernelInfo kAvx2Kernel{"avx2", internal::conv_kernel_avx2};
#endif

// Test/bench override; null means "dispatch normally". Acquire/release
// pairs with the pool's run barrier for cross-worker visibility.
std::atomic<const ConvKernelInfo*> g_override{nullptr};

}  // namespace

const ConvKernelInfo& scalar_conv_kernel() { return kScalarKernel; }

std::span<const ConvKernelInfo> conv_kernels() {
  static const std::vector<ConvKernelInfo> kernels = [] {
    std::vector<ConvKernelInfo> list{kScalarKernel};
#if defined(BKC_HAVE_AVX2)
    if (simd::cpu_supports_avx2()) list.push_back(kAvx2Kernel);
#endif
    return list;
  }();
  return kernels;
}

const ConvKernelInfo& active_conv_kernel() {
  if (const ConvKernelInfo* forced =
          g_override.load(std::memory_order_acquire)) {
    return *forced;
  }
  if (simd::scalar_forced()) return kScalarKernel;
  return conv_kernels().back();
}

ScopedConvKernelOverride::ScopedConvKernelOverride(
    const ConvKernelInfo& kernel)
    : previous_(g_override.exchange(&kernel, std::memory_order_acq_rel)) {}

ScopedConvKernelOverride::~ScopedConvKernelOverride() {
  g_override.store(previous_, std::memory_order_release);
}

}  // namespace bkc::bnn
