#pragma once
// Neural network layers used by ReActNet (Fig. 1 of the paper).
//
// The binary fast path (BinaryConv2d) runs on the channel-packed layout;
// everything else (batch norm, RPReLU, int8 stem/classifier) runs in
// full precision exactly as the paper describes: "batch-norm and Prelu
// activation functions ... are computed using full-precision", while the
// input and output layers are quantized to 8 bits (Sec II-B).
//
// The layer classes have no common base, since every caller knows the
// concrete layer it runs. They share these members:
//   * forward_into(input, output, workspace) runs the layer on CHW float
//     views. `output` must have output_shape(input.shape()); temporary
//     storage comes from `workspace`, so a call performs no heap
//     allocation. `output` must not alias `input` unless the layer
//     documents in-place support (BatchNorm and RPReLU are alias-safe).
//     Binary layers binarize internally (packing applies Eq. 1's sign),
//     so the float interface keeps ReActNet's residual topology plain.
//   * output_shape(input) gives the output shape without building a
//     record (op_record copies the name string, which the
//     zero-allocation orchestrators cannot afford per call).
//   * op_record(input) is the layer's complete bnn::OpRecord at that
//     input shape: storage, work, precision, shapes and, for convs,
//     kernel shape and geometry (Table I, the memory plan and hwsim).
//     AvgPool2x2 has none: the stride-2 shortcut pool runs fused into
//     the block's conv epilogue and is not a recorded op.
//   * name() is the layer's op name.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bnn/bconv.h"
#include "bnn/bitpack.h"
#include "bnn/model.h"
#include "tensor/tensor.h"

namespace bkc::bnn {

class Workspace;  // bnn/memory_plan.h

/// 1-bit convolution (Eq. 2). Holds the channel-packed kernel;
/// forward_into binarizes + packs its input (the sign that precedes each
/// binary conv in ReActNet) and runs the xnor/popcount engine.
class BinaryConv2d {
 public:
  BinaryConv2d(std::string name, PackedKernel kernel, ConvGeometry geometry);

  /// Packs the input, ringed with the geometry's padding, into the
  /// workspace's shared pack scratch (caller-provided storage, no
  /// per-call pack allocation), then runs forward_packed.
  void forward_into(ConstTensorView input, TensorView output,
                    Workspace& workspace) const;
  /// Convolve an already packed input into `output`; its ring must equal
  /// geometry().padding. Lets convs that read the same tensor share one
  /// pack. An `epilogue` fuses the block's batch norm, residual and
  /// RPReLU into the conv (binary_conv2d_into).
  void forward_packed(const PackedFeature& input, TensorView output,
                      const ConvEpilogue* epilogue = nullptr) const;
  FeatureShape output_shape(const FeatureShape& input_shape) const {
    return geometry_.output_shape(input_shape, kernel_.shape());
  }
  OpRecord op_record(const FeatureShape& input) const;
  std::string name() const { return name_; }

  const PackedKernel& kernel() const { return kernel_; }
  /// Replace the kernel (used by the compression pipeline to install
  /// clustered weights). The shape must not change.
  void set_kernel(PackedKernel kernel);
  const ConvGeometry& geometry() const { return geometry_; }

 private:
  std::string name_;
  PackedKernel kernel_;
  ConvGeometry geometry_;
};

/// 8-bit quantized convolution for the input layer. Weights are stored
/// as int8 with a single symmetric scale; activations are quantized
/// dynamically per call (scalar std::round, halves away from zero).
///
/// Dispatch: unless simd::scalar_forced(), a CPU with AVX2 runs the
/// kernel in int8_kernels_avx2.cpp over a zero-ringed, phase-split
/// plane (bnn/int8_kernels.h), 16 output pixels per step, output
/// channels spread over current_num_threads(). Otherwise the scalar
/// loop below runs; it is the oracle the AVX2 kernel must match bit for
/// bit. The match is exact, not a tolerance:
///   * the accumulation is integer. |acc| <= taps * 127^2, and the
///     constructor caps taps so that fits int32 (the paper's 3x3x3
///     stem: 27 * 127^2 = 435,483);
///   * converting acc to float is exact below 2^24, which the stem's
///     bound is, and both paths round the same way above it;
///   * dequantization is a multiply and then an add in both paths; the
///     AVX2 TU is built without -mfma and with -ffp-contract=off, so
///     no FMA can fuse them.
/// Any non-finite weight or input value is a CheckError.
class Int8Conv2d {
 public:
  /// Quantizes `weights` symmetrically to int8.
  Int8Conv2d(std::string name, const WeightTensor& weights,
             std::vector<float> bias, ConvGeometry geometry);

  void forward_into(ConstTensorView input, TensorView output,
                    Workspace& workspace) const;
  FeatureShape output_shape(const FeatureShape& input_shape) const {
    return geometry_.output_shape(input_shape, shape_);
  }
  OpRecord op_record(const FeatureShape& input) const;
  std::string name() const { return name_; }

 private:
  std::string name_;
  KernelShape shape_;
  std::vector<std::int8_t> weights_;
  /// weights_ as the AVX2 kernel's int16 tap pairs (int8_kernels.h).
  std::vector<std::int32_t> weight_pairs_;
  std::vector<float> bias_;
  float weight_scale_ = 1.0f;
  ConvGeometry geometry_;
};

/// 8-bit quantized fully-connected classifier (the output layer).
/// Expects a Cx1x1 input. Dispatches like Int8Conv2d: on AVX2 each
/// output is a _mm256_madd_epi16 row dot product, exact in int32 (the
/// constructor caps in_features * 127^2 below 2^31; the paper's 1024
/// features give 16,516,096 < 2^24), then the scalar dequantization.
/// Any non-finite weight or input value is a CheckError.
class Int8Linear {
 public:
  /// weights laid out [out][in]; quantized symmetrically to int8.
  Int8Linear(std::string name, std::int64_t in_features,
             std::int64_t out_features, std::vector<float> weights,
             std::vector<float> bias);

  void forward_into(ConstTensorView input, TensorView output,
                    Workspace& workspace) const;
  FeatureShape output_shape(const FeatureShape& input_shape) const;
  OpRecord op_record(const FeatureShape& input) const;
  std::string name() const { return name_; }

  std::int64_t in_features() const { return in_features_; }
  std::int64_t out_features() const { return out_features_; }

 private:
  std::string name_;
  std::int64_t in_features_;
  std::int64_t out_features_;
  std::vector<std::int8_t> weights_;
  std::vector<float> bias_;
  float weight_scale_ = 1.0f;
};

/// Inference-folded batch normalization: y = scale_c * x + bias_c.
/// Inside a basic block it runs fused into the binary conv
/// (ConvEpilogue); forward_into is the unfused oracle the block tests
/// compare against.
class BatchNorm {
 public:
  BatchNorm(std::string name, std::vector<float> scale,
            std::vector<float> bias);

  void forward_into(ConstTensorView input, TensorView output,
                    Workspace& workspace) const;  // alias-safe
  FeatureShape output_shape(const FeatureShape& input_shape) const {
    return input_shape;
  }
  OpRecord op_record(const FeatureShape& input) const;
  std::string name() const { return name_; }

  std::span<const float> scale() const { return scale_; }
  std::span<const float> bias() const { return bias_; }

 private:
  std::string name_;
  std::vector<float> scale_;
  std::vector<float> bias_;
};

/// ReActNet's RPReLU activation: a PReLU whose input and output are
/// shifted by learnable per-channel biases:
///   y = PReLU(x - shift_in_c) + shift_out_c
/// with PReLU(v) = v > 0 ? v : slope_c * v. (Sec II-B: "the Prelu
/// activation is biased by shifting and reshaping its input".) Like
/// BatchNorm it runs fused into a block's binary convs; forward_into is
/// the unfused oracle.
class RPReLU {
 public:
  RPReLU(std::string name, std::vector<float> shift_in,
         std::vector<float> slope, std::vector<float> shift_out);

  void forward_into(ConstTensorView input, TensorView output,
                    Workspace& workspace) const;  // alias-safe
  FeatureShape output_shape(const FeatureShape& input_shape) const {
    return input_shape;
  }
  OpRecord op_record(const FeatureShape& input) const;
  std::string name() const { return name_; }

  std::span<const float> shift_in() const { return shift_in_; }
  std::span<const float> slope() const { return slope_; }
  std::span<const float> shift_out() const { return shift_out_; }

 private:
  std::string name_;
  std::vector<float> shift_in_;
  std::vector<float> slope_;
  std::vector<float> shift_out_;
};

/// 2x2 stride-2 average pooling (ReActNet's downsampling shortcut). A
/// stride-2 block reads its shortcut pooled inside the fused conv
/// epilogue; this layer is the unfused oracle.
class AvgPool2x2 {
 public:
  void forward_into(ConstTensorView input, TensorView output,
                    Workspace& workspace) const;
  FeatureShape output_shape(const FeatureShape& input_shape) const {
    return {input_shape.channels, input_shape.height / 2,
            input_shape.width / 2};
  }
  std::string name() const { return "avgpool2x2"; }
};

/// Global average pooling to Cx1x1 (before the classifier).
class GlobalAvgPool {
 public:
  void forward_into(ConstTensorView input, TensorView output,
                    Workspace& workspace) const;
  FeatureShape output_shape(const FeatureShape& input_shape) const {
    return {input_shape.channels, 1, 1};
  }
  OpRecord op_record(const FeatureShape& input) const;
  std::string name() const { return "global_avgpool"; }
};

/// Element-wise sum of two equally-shaped views (the residual
/// connection); `out` may alias `a` (the in-place residual). The block
/// forward path adds its residuals inside the fused conv epilogue; this
/// is the unfused oracle.
void residual_add_into(ConstTensorView a, ConstTensorView b, TensorView out);

}  // namespace bkc::bnn
