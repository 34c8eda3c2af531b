#pragma once
// Dispatchable inner kernels of binary_conv2d.
//
// binary_conv2d keeps its shape checks, output allocation and
// per-output-channel parallel_for fan-out in bconv.cpp; the actual
// xnor+popcount pixel loop is one of the kernels registered here. The
// scalar kernel is the reference implementation (the seed's loop,
// verbatim); wider kernels (AVX2 today, NEON when someone ports the
// same structure to 128-bit registers) are contractually bit-identical
// to it for every geometry, channel count and thread count - the
// accumulation is integer, so "bit-identical" is exact equality, not a
// tolerance. tests/test_bconv_simd.cpp sweeps that contract across
// every registered kernel.
//
// Fast kernels run one branchless, mask-free loop over every output
// pixel. They rely on the bitpack.h layout invariant: tail lanes *and*
// the padding ring are zero. The input is packed with a ring as wide as
// the conv's padding, so every kernel tap reads storage; a ring tap
// reads zero words, and ~(w ^ 0) == ~w is the scalar padding term. The
// tail lanes are zero in both features and kernels, so the spurious
// xnor matches they contribute are the *constant*
// (64 * words - channels) per kernel position, subtracted once per
// pixel instead of masked once per word.
//
// A kernel also owns the block epilogue (bconv.h, ConvEpilogue): when
// one is passed, it rewrites each output channel's plane right after
// computing it, inside the same thread chunk. The scalar kernel applies
// the scalar formula and is the epilogue's oracle too; a wide kernel
// performs the same float operations in the same order, so the
// contract stays exact equality. Wide kernels write the RPReLU select
// by hand (compare mask + blend, slope * v always computed): under
// GCC's default -ftrapping-math the compiler keeps
// `v > 0 ? v : slope * v` a branch, which mispredicts on about half of
// sign-random activations.

#include <cstdint>
#include <span>

#include "bnn/bconv.h"
#include "bnn/bitpack.h"
#include "tensor/tensor.h"

namespace bkc::bnn {

/// Compute output channels [o_begin, o_end) of one binary convolution
/// into `out` (whose shape is the geometry's output shape). Called from
/// inside binary_conv2d's parallel_for, so implementations must write
/// only the rows of their channel range. Preconditions (checked by
/// binary_conv2d before dispatch): input/kernel channels and packing
/// match, the input's ring equals geometry.padding, out has the output
/// shape. `out` is a view so the destination can live in a Workspace
/// arena (Tensor converts implicitly); kernels assign every pixel of
/// their range before reading any back, so the destination may be
/// uninitialised. A non-null `epilogue` (already checked against `out`
/// by binary_conv2d_into) is applied to each channel of the range once
/// its plane is complete, reading only that channel's residual.
using ConvKernelFn = void (*)(const PackedFeature& input,
                              const PackedKernel& kernel,
                              ConvGeometry geometry, TensorView out,
                              std::int64_t o_begin, std::int64_t o_end,
                              const ConvEpilogue* epilogue);

/// A registered kernel implementation. `name` is the stable identifier
/// the test suites report variants by.
struct ConvKernelInfo {
  const char* name;
  ConvKernelFn fn;
};

/// The scalar reference kernel (always available).
const ConvKernelInfo& scalar_conv_kernel();

/// Every kernel this binary can run on this machine, scalar first,
/// widest last. A kernel appears only when it was compiled in *and* the
/// CPU supports it, so each entry is safe to call.
std::span<const ConvKernelInfo> conv_kernels();

/// The kernel binary_conv2d dispatches to: the widest available, unless
/// simd::scalar_forced() (BKC_DISABLE_SIMD build, BKC_FORCE_SCALAR env,
/// ScopedForceScalar) pins the scalar reference or a
/// ScopedConvKernelOverride pins a specific one.
const ConvKernelInfo& active_conv_kernel();

/// RAII pin of a specific registered kernel, overriding both the ISA
/// pick and simd::scalar_forced(). Process-global; the bit-identity
/// suites use it to diff each variant from one binary. Establish before
/// fanning out to the pool.
class ScopedConvKernelOverride {
 public:
  explicit ScopedConvKernelOverride(const ConvKernelInfo& kernel);
  ~ScopedConvKernelOverride();
  ScopedConvKernelOverride(const ScopedConvKernelOverride&) = delete;
  ScopedConvKernelOverride& operator=(const ScopedConvKernelOverride&) =
      delete;

 private:
  const ConvKernelInfo* previous_;
};

#if defined(BKC_HAVE_AVX2)
namespace internal {

/// The AVX2 kernel (defined in bconv_kernels_avx2.cpp, compiled with
/// -mavx2 and -ffp-contract=off, without -mfma, so its epilogue rounds
/// every multiply and add on its own as the scalar one does). Only
/// registered - and only callable - when simd::cpu_supports_avx2() is
/// true.
void conv_kernel_avx2(const PackedFeature& input, const PackedKernel& kernel,
                      ConvGeometry geometry, TensorView out,
                      std::int64_t o_begin, std::int64_t o_end,
                      const ConvEpilogue* epilogue);

}  // namespace internal
#endif

}  // namespace bkc::bnn
