#pragma once
// Binary convolution via xnor + popcount (Eq. 2 of the paper).
//
// For +/-1 operands the dot product of two length-K bit vectors is
//   dot = 2 * popcount(xnor(w, x)) - K
// because every matching bit pair contributes +1 and every differing
// pair -1. The engine walks the channel-packed layout directly: one
// 64-bit xnor+popcount covers 64 channels, mirroring daBNN's NEON path.
//
// Spatial padding follows the paper (Sec IV-B): padded positions hold
// the value -1 (stored bit 0) and *do* contribute to the dot product,
// exactly like the reference convolution with pad_value = -1. The
// input carries them as its zero ring (bitpack.h): it must be packed
// with padding() == geometry.padding.

#include <cstdint>
#include <span>

#include "bnn/bitpack.h"
#include "tensor/tensor.h"

namespace bkc::bnn {

/// The float work that follows a binary conv inside a ReActNet basic
/// block (Fig. 1): batch norm, the residual shortcut and RPReLU, applied
/// per output channel by the conv kernel itself (see
/// binary_conv2d_into). Each element v of output channel o, with
/// a = act_offset + o, becomes
///   v = v * bn_scale[o] + bn_bias[o]
///   v = v + r                        (r from `residual`, below)
///   v = v - shift_in[a]
///   v = (v > 0 ? v : slope[a] * v) + shift_out[a]
/// in exactly that order: the same float operations, one rounding
/// each, that BatchNorm, residual_add_into, AvgPool2x2 and RPReLU
/// perform one pass at a time. The fused result is therefore
/// bit-identical to running those layers after the conv; the layers
/// stay as the oracle the block tests compare against.
struct ConvEpilogue {
  std::span<const float> bn_scale;  ///< one per output channel
  std::span<const float> bn_bias;   ///< one per output channel
  /// Residual source with the conv's output channel count. Identity:
  /// the output's height and width, r = residual(o, y, x). Pooled:
  /// exactly twice both, r = 0.25f * (r0c0 + r0c1 + r1c0 + r1c1) over
  /// the 2x2 window at (2y, 2x), summed left to right as AvgPool2x2
  /// does. Must not overlap the conv's output.
  ConstTensorView residual;
  bool pool_residual = false;
  /// RPReLU parameters, indexed act_offset + o: a conv that writes a
  /// channel slice of a wider activation reads that slice's parameters.
  std::span<const float> shift_in;
  std::span<const float> slope;
  std::span<const float> shift_out;
  std::int64_t act_offset = 0;
};

/// Binary convolution returning the integer dot products as floats
/// (range [-K, K] with K = in_channels * kernel_h * kernel_w).
/// Works for any kernel size; the paper's models use 3x3 and 1x1.
///
/// The per-output-channel loop runs on bkc::current_num_threads()
/// threads (util/thread_pool.h); results are bit-identical at every
/// thread count because each output channel is computed independently.
/// Engine::classify(image, num_threads) is the usual way to set this.
///
/// The inner pixel loop dispatches to the widest kernel the CPU
/// supports (bnn/bconv_kernels.h: AVX2 today, scalar reference
/// otherwise); every kernel is bit-identical to the scalar path, and
/// BKC_FORCE_SCALAR / -DBKC_DISABLE_SIMD pin the reference.
Tensor binary_conv2d(const PackedFeature& input, const PackedKernel& kernel,
                     ConvGeometry geometry);

/// Allocation-free core that binary_conv2d wraps: convolve into
/// caller-provided storage of exactly the geometry's output shape
/// (CheckError otherwise, and when the input's ring differs from
/// geometry.padding). The caller owns the pack scratch (typically
/// the Workspace's, filled via pack_feature_into). Performs no heap
/// allocation at any thread count.
///
/// With an `epilogue`, each thread's chunk applies it to every output
/// channel plane right after the kernel writes it, while the plane is
/// still in cache; the result is bit-identical to the conv followed by
/// the unfused layers. Parameter sizes and the residual's shape are
/// checked (CheckError on a mismatch or an overlap with `out`).
void binary_conv2d_into(const PackedFeature& input, const PackedKernel& kernel,
                        ConvGeometry geometry, TensorView out,
                        const ConvEpilogue* epilogue = nullptr);

/// Number of xnor+popcount word operations one call performs; the
/// timing model uses the same accounting.
std::int64_t binary_conv2d_word_ops(const FeatureShape& input,
                                    const KernelShape& kernel,
                                    ConvGeometry geometry);

}  // namespace bkc::bnn
