// AVX2 xnor+popcount convolution kernel (the daBNN formulation on
// 256-bit registers). Compiled with -mavx2 -mpopcnt in its own TU so
// the rest of the library stays baseline-ISA; only registered for
// dispatch when the running CPU reports AVX2.
//
// Structure: every output pixel runs branchless and mask-free over the
// padded input plane. The input carries a zero ring as wide as the
// conv's padding (bitpack.h invariant: tail lanes and the ring are
// zero), so every kernel tap lies in storage and a ring tap reads zero
// words: ~(w ^ 0) == ~w, the scalar padding term. Tail-word lanes above
// the channel count are zero in both operands, so each kernel position
// contributes exactly (64 * words - channels) spurious xnor agreements -
// a constant subtracted once per pixel.
//
// Two pixel shapes:
//   * words_per_pixel == 1, stride 1: four consecutive output columns
//     per vector op. Their input words are contiguous, and the per-
//     64-bit-lane _mm256_sad_epu8 sums keep the four pixels' counts in
//     separate lanes.
//   * otherwise: one pixel at a time over rows of kernel_w * words
//     contiguous words (kernel rows and input row segments are both
//     contiguous in the channel-packed layout).
//
// The block epilogue (bconv.h, ConvEpilogue) runs on each output
// channel's plane as soon as the plane is complete, eight floats per
// step: mul + add (batch norm), add (residual), sub, then the RPReLU
// select as _mm256_cmp_ps(_CMP_GT_OQ) + _mm256_blendv_ps with slope * v
// always computed - branch-free, and false for +-0 and NaN exactly like
// the scalar `v > 0`. A pooled residual row is de-interleaved into its
// even and odd columns with _mm256_shuffle_ps, summed in AvgPool2x2's
// order and put back in column order with one lane permute. The TU is
// built with -ffp-contract=off and without -mfma, so no multiply and
// add fuse; plane tails run the scalar formula.
//
// A NEON port would mirror this file one-to-one: vcntq_u8 replaces the
// nibble-LUT popcount and vpadalq the SAD accumulation, vbslq_f32 the
// blend; the dispatch registry in bconv_kernels.cpp is ISA-agnostic.

#include <immintrin.h>

#include <bit>

#include "bnn/bconv_kernels.h"
#include "util/static_switch.h"

namespace bkc::bnn::internal {

namespace {

/// Per-byte popcounts of v (Mula's nibble-LUT shuffle).
inline __m256i popcount_bytes(__m256i v) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi =
      _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                         _mm256_shuffle_epi8(lut, hi));
}

inline std::int64_t hsum_epi64(__m256i v) {
  const __m128i sum = _mm_add_epi64(_mm256_castsi256_si128(v),
                                    _mm256_extracti128_si256(v, 1));
  return _mm_cvtsi128_si64(sum) + _mm_extract_epi64(sum, 1);
}

/// popcount(~(a[i] ^ b[i])) summed over n words, unmasked.
inline std::int64_t xnor_popcount_row(const std::uint64_t* a,
                                      const std::uint64_t* b,
                                      std::int64_t n) {
  std::int64_t total = 0;
  std::int64_t i = 0;
  if (n >= 4) {
    const __m256i ones = _mm256_set1_epi64x(-1);
    const __m256i zero = _mm256_setzero_si256();
    __m256i acc = _mm256_setzero_si256();
    for (; i + 4 <= n; i += 4) {
      const __m256i va =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
      const __m256i vb =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
      const __m256i agree =
          _mm256_xor_si256(_mm256_xor_si256(va, vb), ones);
      acc = _mm256_add_epi64(acc,
                             _mm256_sad_epu8(popcount_bytes(agree), zero));
    }
    total = hsum_epi64(acc);
  }
  for (; i < n; ++i) {
    total += std::popcount(~(a[i] ^ b[i]));
  }
  return total;
}

/// One channel's epilogue constants, broadcast once per plane.
struct EpilogueLanes {
  float scale, bias, shift_in, slope, shift_out;

  /// The scalar formula, for plane tails.
  float apply(float v, float r) const {
    v = v * scale + bias;
    v = v + r;
    v = v - shift_in;
    return (v > 0.0f ? v : slope * v) + shift_out;
  }
};

/// The epilogue of output channel o over its plane `out_plane`.
void apply_epilogue_avx2(const ConvEpilogue& epilogue, std::int64_t o,
                         float* out_plane, const FeatureShape& out_shape) {
  const auto oc = static_cast<std::size_t>(o);
  const auto ac = static_cast<std::size_t>(epilogue.act_offset + o);
  const EpilogueLanes c{epilogue.bn_scale[oc], epilogue.bn_bias[oc],
                        epilogue.shift_in[ac], epilogue.slope[ac],
                        epilogue.shift_out[ac]};
  const __m256 scale = _mm256_set1_ps(c.scale);
  const __m256 bias = _mm256_set1_ps(c.bias);
  const __m256 shift_in = _mm256_set1_ps(c.shift_in);
  const __m256 slope = _mm256_set1_ps(c.slope);
  const __m256 shift_out = _mm256_set1_ps(c.shift_out);
  const __m256 zero = _mm256_setzero_ps();
  const auto apply = [&](__m256 v, __m256 r) {
    v = _mm256_add_ps(_mm256_mul_ps(v, scale), bias);
    v = _mm256_add_ps(v, r);
    v = _mm256_sub_ps(v, shift_in);
    const __m256 positive = _mm256_cmp_ps(v, zero, _CMP_GT_OQ);
    v = _mm256_blendv_ps(_mm256_mul_ps(slope, v), v, positive);
    return _mm256_add_ps(v, shift_out);
  };

  const FeatureShape& rs = epilogue.residual.shape();
  const float* res = epilogue.residual.data().data() + o * rs.height * rs.width;
  if (!epilogue.pool_residual) {
    // Identity: output and residual planes are both contiguous.
    const std::int64_t n = out_shape.height * out_shape.width;
    std::int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
      _mm256_storeu_ps(out_plane + i, apply(_mm256_loadu_ps(out_plane + i),
                                            _mm256_loadu_ps(res + i)));
    }
    for (; i < n; ++i) out_plane[i] = c.apply(out_plane[i], res[i]);
    return;
  }
  // Pooled: output row y reads residual rows 2y and 2y + 1; eight
  // outputs take sixteen residual columns from each.
  const __m256 quarter = _mm256_set1_ps(0.25f);
  const auto evens = [](const float* p) {
    return _mm256_shuffle_ps(_mm256_loadu_ps(p), _mm256_loadu_ps(p + 8),
                             _MM_SHUFFLE(2, 0, 2, 0));
  };
  const auto odds = [](const float* p) {
    return _mm256_shuffle_ps(_mm256_loadu_ps(p), _mm256_loadu_ps(p + 8),
                             _MM_SHUFFLE(3, 1, 3, 1));
  };
  for (std::int64_t y = 0; y < out_shape.height; ++y) {
    float* out_row = out_plane + y * out_shape.width;
    const float* row0 = res + 2 * y * rs.width;
    const float* row1 = row0 + rs.width;
    std::int64_t x = 0;
    for (; x + 8 <= out_shape.width; x += 8) {
      const float* r0 = row0 + 2 * x;
      const float* r1 = row1 + 2 * x;
      // Lanes come out as columns x + {0, 1, 4, 5, 2, 3, 6, 7}: the
      // shuffle works within 128-bit halves. Summing lane-wise is
      // order-free across lanes, so one 64-bit permute at the end
      // restores column order.
      const __m256 sum = _mm256_add_ps(
          _mm256_add_ps(_mm256_add_ps(evens(r0), odds(r0)), evens(r1)),
          odds(r1));
      const __m256 pooled = _mm256_castpd_ps(_mm256_permute4x64_pd(
          _mm256_castps_pd(_mm256_mul_ps(quarter, sum)),
          _MM_SHUFFLE(3, 1, 2, 0)));
      _mm256_storeu_ps(out_row + x,
                       apply(_mm256_loadu_ps(out_row + x), pooled));
    }
    for (; x < out_shape.width; ++x) {
      const float* r0 = row0 + 2 * x;
      const float* r1 = row1 + 2 * x;
      out_row[x] =
          c.apply(out_row[x], 0.25f * (r0[0] + r0[1] + r1[0] + r1[1]));
    }
  }
}

/// kWpp/kIs3x3 are the BKC_WORDS_SWITCH / BKC_BOOL_SWITCH
/// monomorphization constants (0 / false = stay runtime-generic): with
/// both pinned the row loops below have compile-time trip counts and
/// unroll completely.
template <int kWpp, bool kIs3x3>
void conv_avx2_impl(const PackedFeature& input, const PackedKernel& kernel,
                    ConvGeometry geometry, TensorView out,
                    std::int64_t o_begin, std::int64_t o_end,
                    const ConvEpilogue* epilogue) {
  const FeatureShape& in_shape = input.shape();
  const KernelShape& k_shape = kernel.shape();
  const FeatureShape& out_shape = out.shape();
  const std::int64_t wpp =
      kWpp > 0 ? kWpp : input.words_per_pixel();
  const std::int64_t kh = kIs3x3 ? 3 : k_shape.kernel_h;
  const std::int64_t kw = kIs3x3 ? 3 : k_shape.kernel_w;
  const std::int64_t stride = geometry.stride;
  // Pixels per row of the padded plane; storage pixel (oy * stride,
  // ox * stride) is the top-left tap of output pixel (oy, ox).
  const std::int64_t in_w = in_shape.width + 2 * geometry.padding;
  const std::int64_t receptive = k_shape.receptive_size();
  // Constant spurious agreements from the zeroed tail lanes (see file
  // comment); zero when the channel count fills every word.
  const std::int64_t spurious =
      kh * kw * (wpp * kWordBits - in_shape.channels);

  const std::uint64_t* in_base = input.words().data();
  float* out_base = out.data().data();

  for (std::int64_t o = o_begin; o < o_end; ++o) {
    // All kh*kw*wpp kernel words of output channel o are contiguous.
    const std::uint64_t* kbase = kernel.at(o, 0, 0).data();
    for (std::int64_t oy = 0; oy < out_shape.height; ++oy) {
      float* out_row =
          out_base + (o * out_shape.height + oy) * out_shape.width;
      const std::int64_t base_y = oy * stride;
      std::int64_t ox = 0;
      if (kWpp == 1 && stride == 1) {
        // Four consecutive output columns per iteration: with one word
        // per pixel their input words are contiguous, and SAD keeps
        // each pixel's count in its own 64-bit lane.
        const __m256i ones = _mm256_set1_epi64x(-1);
        const __m256i zero = _mm256_setzero_si256();
        for (; ox + 4 <= out_shape.width; ox += 4) {
          __m256i acc = _mm256_setzero_si256();
          for (std::int64_t ky = 0; ky < kh; ++ky) {
            const std::uint64_t* row = in_base + (base_y + ky) * in_w + ox;
            for (std::int64_t kx = 0; kx < kw; ++kx) {
              const __m256i w = _mm256_set1_epi64x(
                  static_cast<long long>(kbase[ky * kw + kx]));
              const __m256i x = _mm256_loadu_si256(
                  reinterpret_cast<const __m256i*>(row + kx));
              const __m256i agree =
                  _mm256_xor_si256(_mm256_xor_si256(w, x), ones);
              acc = _mm256_add_epi64(
                  acc, _mm256_sad_epu8(popcount_bytes(agree), zero));
            }
          }
          alignas(32) std::int64_t lanes[4];
          _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
          for (int j = 0; j < 4; ++j) {
            out_row[ox + j] = static_cast<float>(
                2 * (lanes[j] - spurious) - receptive);
          }
        }
      }
      // Generic pixel (and the <4-column remainder above): kernel rows
      // and input row segments are contiguous runs of kw * wpp words.
      for (; ox < out_shape.width; ++ox) {
        const std::int64_t base_x = ox * stride;
        std::int64_t raw = 0;
        for (std::int64_t ky = 0; ky < kh; ++ky) {
          raw += xnor_popcount_row(
              kbase + ky * kw * wpp,
              in_base + ((base_y + ky) * in_w + base_x) * wpp, kw * wpp);
        }
        out_row[ox] =
            static_cast<float>(2 * (raw - spurious) - receptive);
      }
    }
    if (epilogue != nullptr) {
      apply_epilogue_avx2(*epilogue, o,
                          out_base + o * out_shape.height * out_shape.width,
                          out_shape);
    }
  }
}

}  // namespace

void conv_kernel_avx2(const PackedFeature& input, const PackedKernel& kernel,
                      ConvGeometry geometry, TensorView out,
                      std::int64_t o_begin, std::int64_t o_end,
                      const ConvEpilogue* epilogue) {
  const KernelShape& k_shape = kernel.shape();
  BKC_WORDS_SWITCH(input.words_per_pixel(), kWpp, [&] {
    BKC_BOOL_SWITCH(k_shape.kernel_h == 3 && k_shape.kernel_w == 3, kIs3x3,
                    [&] {
                      conv_avx2_impl<kWpp, kIs3x3>(input, kernel, geometry,
                                                   out, o_begin, o_end,
                                                   epilogue);
                    });
  });
}

}  // namespace bkc::bnn::internal
