#include "bnn/bconv.h"

#include "bnn/bconv_kernels.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace bkc::bnn {

Tensor binary_conv2d(const PackedFeature& input, const PackedKernel& kernel,
                     ConvGeometry geometry) {
  const FeatureShape in_shape = input.shape();
  const KernelShape k_shape = kernel.shape();
  check(in_shape.channels == k_shape.in_channels,
        "binary_conv2d: channel mismatch (", in_shape, " vs ", k_shape, ")");
  const FeatureShape out_shape = geometry.output_shape(in_shape, k_shape);
  Tensor out(out_shape);
  binary_conv2d_into(input, kernel, geometry, out);
  return out;
}

void binary_conv2d_into(const PackedFeature& input, const PackedKernel& kernel,
                        ConvGeometry geometry, TensorView out) {
  check(input.shape().channels == kernel.shape().in_channels,
        "binary_conv2d_into: channel mismatch between input and kernel");
  check(input.words_per_pixel() == kernel.words_per_position(),
        "binary_conv2d_into: packing mismatch");
  check(input.padding() == geometry.padding,
        "binary_conv2d_into: input ring must equal the geometry's padding");
  const FeatureShape out_shape =
      geometry.output_shape(input.shape(), kernel.shape());
  check(out.shape() == out_shape,
        "binary_conv2d_into: out view does not have the output shape");

  // Dispatch is resolved once, on the calling thread; every chunk runs
  // the same kernel. Output channels are independent (each one reads
  // the shared input and its own kernel slice, and writes its own
  // output plane), so the outer loop fans out across threads; every
  // kernel accumulates integers per (o, oy, ox) in isolation, keeping
  // results bit-identical at any thread count *and* for any registered
  // kernel (the contract tests/test_bconv_simd.cpp enforces).
  const ConvKernelFn fn = active_conv_kernel().fn;
  const int num_threads = current_num_threads();
  if (num_threads <= 1) {
    // Serial case bypasses parallel_for: constructing its std::function
    // argument can heap-allocate, which the zero-allocation classify
    // contract forbids. Same arithmetic, same full channel range.
    fn(input, kernel, geometry, out, 0, out_shape.channels);
    return;
  }
  parallel_for(out_shape.channels, num_threads,
               [&](std::int64_t o_begin, std::int64_t o_end) {
                 fn(input, kernel, geometry, out, o_begin, o_end);
               });
}

std::int64_t binary_conv2d_word_ops(const FeatureShape& input,
                                    const KernelShape& kernel,
                                    ConvGeometry geometry) {
  const FeatureShape out = geometry.output_shape(input, kernel);
  return out.channels * out.height * out.width * kernel.kernel_h *
         kernel.kernel_w * words_per_group(kernel.in_channels);
}

}  // namespace bkc::bnn
