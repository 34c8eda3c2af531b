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

#include "bnn/bitpack.h"
#include "tensor/tensor.h"

namespace bkc::bnn {

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
/// the Workspace's, filled via pack_feature_into). When
/// current_num_threads() is 1 the kernel is invoked directly — no
/// parallel_for, no std::function — so the single-thread path performs
/// zero heap allocations.
void binary_conv2d_into(const PackedFeature& input, const PackedKernel& kernel,
                        ConvGeometry geometry, TensorView out);

/// Number of xnor+popcount word operations one call performs; the
/// timing model uses the same accounting.
std::int64_t binary_conv2d_word_ops(const FeatureShape& input,
                                    const KernelShape& kernel,
                                    ConvGeometry geometry);

}  // namespace bkc::bnn
