#include "bnn/bconv.h"

#include "bnn/bconv_kernels.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace bkc::bnn {

namespace {

/// The kernels read the epilogue without bounds checks, so every span
/// and the residual's extent are confirmed here, once per call.
void check_epilogue(const ConvEpilogue& epilogue, TensorView out) {
  const FeatureShape& s = out.shape();
  const auto channels = static_cast<std::size_t>(s.channels);
  check(epilogue.bn_scale.size() == channels &&
            epilogue.bn_bias.size() == channels,
        "binary_conv2d_into: epilogue batch norm needs one scale and bias "
        "per output channel");
  check(epilogue.act_offset >= 0 &&
            epilogue.shift_in.size() == epilogue.slope.size() &&
            epilogue.slope.size() == epilogue.shift_out.size() &&
            static_cast<std::size_t>(epilogue.act_offset) + channels <=
                epilogue.slope.size(),
        "binary_conv2d_into: epilogue RPReLU parameters do not cover the "
        "output channels at their offset");
  const std::int64_t factor = epilogue.pool_residual ? 2 : 1;
  check(epilogue.residual.shape() ==
            FeatureShape{s.channels, factor * s.height, factor * s.width},
        "binary_conv2d_into: epilogue residual must have the output's "
        "channels and its height and width (twice both when pooled)");
  const std::span<const float> r = epilogue.residual.data();
  const std::span<float> o = out.data();
  const std::less<const float*> before;
  check(!before(r.data(), o.data() + o.size()) ||
            !before(o.data(), r.data() + r.size()),
        "binary_conv2d_into: epilogue residual overlaps the output");
}

}  // namespace

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
                        ConvGeometry geometry, TensorView out,
                        const ConvEpilogue* epilogue) {
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
  if (epilogue != nullptr) check_epilogue(*epilogue, out);

  // Dispatch is resolved once, on the calling thread; every chunk runs
  // the same kernel. Output channels are independent (each one reads
  // the shared input and its own kernel slice, and writes its own
  // output plane), so the outer loop fans out across threads; every
  // kernel accumulates integers per (o, oy, ox) in isolation, keeping
  // results bit-identical at any thread count *and* for any registered
  // kernel (the contract tests/test_bconv_simd.cpp enforces). The
  // epilogue is per channel too, so it runs inside the same chunks.
  const ConvKernelFn fn = active_conv_kernel().fn;
  parallel_for(out_shape.channels, current_num_threads(),
               [&](std::int64_t o_begin, std::int64_t o_end) {
                 fn(input, kernel, geometry, out, o_begin, o_end, epilogue);
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
