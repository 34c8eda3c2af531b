#pragma once
// Quantized input plane and AVX2 kernels of the int8 head (the stem
// conv and the classifier, bnn/layers.h).
//
// The stem's AVX2 kernel reads a quantized input plane laid out so that
// every tap of a run of output pixels is one contiguous load:
//   * a zero ring `padding` wide surrounds each channel, so no tap needs
//     a bounds check (the binary convs' trick, bitpack.h);
//   * each padded row is split into `stride` phase rows: padded column
//     X lands in phase X % stride at position X / stride. Tap kx of
//     output column ox then reads phase kx % stride at position
//     ox + kx / stride, so consecutive output columns read consecutive
//     bytes at any stride;
//   * every phase row is wide enough that the last whole step of
//     kInt8ConvStep output columns stays inside it.
// Byte (c, Y, phase, pos) sits at
//   c * channel_pitch() + Y * row_pitch() + phase * phase_width + pos.
//
// Both the AVX2 and the scalar path draw this one plane from the arena
// (the scalar path fills only its front densely), so the memory plan
// has a single int8 stem term whichever path runs.

#include <cstdint>
#include <span>

#include "tensor/shape.h"
#include "tensor/tensor.h"

namespace bkc::bnn {

/// Output columns the stem kernel computes per vector step.
inline constexpr std::int64_t kInt8ConvStep = 16;

/// `out_width` rounded up to whole steps: the columns the kernel
/// computes (and the plane must cover) per output row.
inline std::int64_t int8_conv_step_columns(std::int64_t out_width) {
  return (out_width + kInt8ConvStep - 1) / kInt8ConvStep * kInt8ConvStep;
}

/// Geometry of one Int8Conv2d call's quantized input plane.
struct Int8ConvPlane {
  std::int64_t channels = 0;
  std::int64_t rows = 0;         ///< padded rows per channel
  std::int64_t stride = 1;       ///< phase rows per padded row
  std::int64_t phase_width = 0;  ///< bytes per phase row

  std::int64_t row_pitch() const { return stride * phase_width; }
  std::int64_t channel_pitch() const { return rows * row_pitch(); }
  std::int64_t bytes() const { return channels * channel_pitch(); }
};

/// The plane Int8Conv2d::forward_into draws for an input of `input`.
/// plan_reactnet_forward sizes the stem's scratch with it.
Int8ConvPlane int8_conv_plane(const FeatureShape& input,
                              const KernelShape& kernel,
                              ConvGeometry geometry);

#if defined(BKC_HAVE_AVX2)
namespace internal {

/// Output channels [o_begin, o_end) of the stem conv over a filled
/// plane, written as acc * dequant + bias[o] (multiply, then add).
/// `weight_pairs` holds, per output channel, per (c, ky), the taps kx
/// and kx + 1 as the low and high int16 halves of one int32 (a zero
/// high half when kw is odd). Defined in int8_kernels_avx2.cpp; only
/// callable when simd::cpu_supports_avx2().
void int8_conv_avx2(std::span<const std::int8_t> plane,
                    const Int8ConvPlane& layout, const KernelShape& kernel,
                    std::span<const std::int32_t> weight_pairs,
                    float dequant, std::span<const float> bias,
                    TensorView out, std::int64_t o_begin,
                    std::int64_t o_end);

/// Exact sum of a[i] * b[i] over n int8 pairs (the classifier's row dot
/// product). n * 127^2 must fit in int32.
std::int32_t int8_dot_avx2(const std::int8_t* a, const std::int8_t* b,
                           std::int64_t n);

}  // namespace internal
#endif

}  // namespace bkc::bnn
