// AVX2 kernels of the int8 head. Compiled with -mavx2 (and without
// -mfma, with -ffp-contract=off) in its own TU so the rest of the
// library stays baseline-ISA; only called after runtime detection
// (simd::cpu_supports_avx2).
//
// Exactness: int8 operands are sign-extended to int16 and multiplied
// pairwise by _mm256_madd_epi16 into int32 lanes. |product| <= 127^2,
// and the layers bound taps * 127^2 below 2^31 at construction, so the
// int32 sums equal the scalar int64 sums. The stem then converts with
// _mm256_cvtepi32_ps, which is exact (|acc| <= 27 * 127^2 < 2^24 for
// the paper's stem) and in any case rounds like the scalar
// static_cast<float>; the multiply and the add stay separate
// instructions, as in the scalar expression.

#include <immintrin.h>

#include <algorithm>

#include "bnn/int8_kernels.h"

namespace bkc::bnn::internal {

namespace {

/// Accumulate taps a and b of kInt8ConvStep consecutive output pixels:
/// interleave their bytes so each int16 pair is (a_i, b_i), then one
/// madd per eight pixels multiplies by the (w_a, w_b) pair and sums.
inline void madd_tap_pair(const std::int8_t* a, const std::int8_t* b,
                          std::int32_t weight_pair, __m256i& lo,
                          __m256i& hi) {
  const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a));
  const __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b));
  const __m256i w = _mm256_set1_epi32(weight_pair);
  lo = _mm256_add_epi32(
      lo, _mm256_madd_epi16(_mm256_cvtepi8_epi16(_mm_unpacklo_epi8(va, vb)),
                            w));
  hi = _mm256_add_epi32(
      hi, _mm256_madd_epi16(_mm256_cvtepi8_epi16(_mm_unpackhi_epi8(va, vb)),
                            w));
}

inline __m256 dequantize(__m256i acc, __m256 scale, __m256 bias) {
  return _mm256_add_ps(_mm256_mul_ps(_mm256_cvtepi32_ps(acc), scale), bias);
}

}  // namespace

void int8_conv_avx2(std::span<const std::int8_t> plane,
                    const Int8ConvPlane& layout, const KernelShape& kernel,
                    std::span<const std::int32_t> weight_pairs,
                    float dequant, std::span<const float> bias,
                    TensorView out, std::int64_t o_begin,
                    std::int64_t o_end) {
  static_assert(kInt8ConvStep == 16, "two 8-lane accumulators per step");
  const FeatureShape& out_shape = out.shape();
  const std::int64_t kw = kernel.kernel_w;
  const std::int64_t pairs_per_channel =
      kernel.in_channels * kernel.kernel_h * ((kw + 1) / 2);
  const std::int64_t stride = layout.stride;
  const __m256 scale = _mm256_set1_ps(dequant);

  for (std::int64_t o = o_begin; o < o_end; ++o) {
    const __m256 bias_v = _mm256_set1_ps(bias[static_cast<std::size_t>(o)]);
    const std::int32_t* o_weights =
        weight_pairs.data() + o * pairs_per_channel;
    for (std::int64_t oy = 0; oy < out_shape.height; ++oy) {
      float* out_row = out.data().data() +
                       (o * out_shape.height + oy) * out_shape.width;
      const std::int8_t* top = plane.data() + oy * stride * layout.row_pitch();
      for (std::int64_t ox = 0; ox < out_shape.width; ox += kInt8ConvStep) {
        __m256i lo = _mm256_setzero_si256();
        __m256i hi = _mm256_setzero_si256();
        const std::int32_t* w = o_weights;
        const std::int8_t* channel = top + ox;
        for (std::int64_t c = 0; c < kernel.in_channels; ++c) {
          const std::int8_t* row = channel;
          for (std::int64_t ky = 0; ky < kernel.kernel_h; ++ky) {
            // Tap kx sits at phase kx % stride, position kx / stride.
            std::int64_t phase = 0;
            std::int64_t pos = 0;
            auto next_tap = [&] {
              const std::int8_t* tap = row + phase * layout.phase_width + pos;
              if (++phase == stride) {
                phase = 0;
                ++pos;
              }
              return tap;
            };
            for (std::int64_t kx = 0; kx < kw; kx += 2) {
              const std::int8_t* a = next_tap();
              // An odd last tap pairs with itself under a zero weight.
              const std::int8_t* b = kx + 1 < kw ? next_tap() : a;
              madd_tap_pair(a, b, *w++, lo, hi);
            }
            row += layout.row_pitch();
          }
          channel += layout.channel_pitch();
        }
        const __m256 f_lo = dequantize(lo, scale, bias_v);
        const __m256 f_hi = dequantize(hi, scale, bias_v);
        if (ox + kInt8ConvStep <= out_shape.width) {
          _mm256_storeu_ps(out_row + ox, f_lo);
          _mm256_storeu_ps(out_row + ox + 8, f_hi);
        } else {
          // Tail step: the plane covers the whole step, the output row
          // only its first width - ox pixels.
          alignas(32) float tail[kInt8ConvStep];
          _mm256_store_ps(tail, f_lo);
          _mm256_store_ps(tail + 8, f_hi);
          std::copy_n(tail, out_shape.width - ox, out_row + ox);
        }
      }
    }
  }
}

std::int32_t int8_dot_avx2(const std::int8_t* a, const std::int8_t* b,
                           std::int64_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i va = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i)));
    const __m256i vb = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i)));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(va, vb));
  }
  __m128i sum = _mm_add_epi32(_mm256_castsi256_si128(acc),
                              _mm256_extracti128_si256(acc, 1));
  sum = _mm_add_epi32(sum, _mm_shuffle_epi32(sum, _MM_SHUFFLE(1, 0, 3, 2)));
  sum = _mm_add_epi32(sum, _mm_shuffle_epi32(sum, _MM_SHUFFLE(2, 3, 0, 1)));
  std::int32_t total = _mm_cvtsi128_si32(sum);
  for (; i < n; ++i) {
    total += static_cast<std::int32_t>(a[i]) * b[i];
  }
  return total;
}

}  // namespace bkc::bnn::internal
