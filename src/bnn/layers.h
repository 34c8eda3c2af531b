#pragma once
// Neural network layers used by ReActNet (Fig. 1 of the paper).
//
// The binary fast path (BinaryConv2d) runs on the channel-packed layout;
// everything else (batch norm, RPReLU, int8 stem/classifier) runs in
// full precision exactly as the paper describes: "batch-norm and Prelu
// activation functions ... are computed using full-precision", while the
// input and output layers are quantized to 8 bits (Sec II-B).

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bnn/bconv.h"
#include "bnn/bitpack.h"
#include "tensor/tensor.h"

namespace bkc::bnn {

class Workspace;  // bnn/memory_plan.h

/// Operation classes used for the Table I storage / execution-time
/// breakdown.
enum class OpClass {
  kInputLayer,   ///< 8-bit quantized stem convolution
  kOutputLayer,  ///< 8-bit quantized fully-connected classifier
  kConv1x1,      ///< 1-bit 1x1 convolutions
  kConv3x3,      ///< 1-bit 3x3 convolutions (the compression target)
  kOther,        ///< activation / normalization layers etc.
};

/// Printable name matching the paper's Table I rows.
std::string op_class_name(OpClass op);

/// Static description of a layer instance: storage, arithmetic work and
/// output shape for a given input shape. This feeds both the Table I
/// accounting and the hwsim trace generator.
struct LayerInfo {
  std::string name;
  OpClass op_class = OpClass::kOther;
  std::uint64_t storage_bits = 0;  ///< parameter storage
  std::uint64_t macs = 0;          ///< multiply-accumulate (or equivalent) ops
  int precision_bits = 32;         ///< operand precision (1, 8 or 32)
  FeatureShape output_shape;
};

/// Abstract layer: a stateless forward pass over CHW float views. Binary
/// layers binarize internally (packing applies Eq. 1's sign), so the
/// float interface keeps the residual topology of ReActNet
/// straightforward.
class Layer {
 public:
  virtual ~Layer() = default;
  Layer() = default;
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;
  Layer(Layer&&) = default;
  Layer& operator=(Layer&&) = default;

  /// Run the layer on `input`, writing into `output` (whose shape must
  /// be output_shape(input.shape())) and drawing any temporary storage
  /// from `workspace`, so a call performs no heap allocation. `output`
  /// must not alias `input` unless a layer documents in-place support
  /// (BatchNorm and RPReLU are alias-safe).
  virtual void forward_into(ConstTensorView input, TensorView output,
                            Workspace& workspace) const = 0;

  /// This layer's output shape for an input of `input_shape`, without
  /// materializing a LayerInfo (info() builds a name string, which the
  /// zero-allocation orchestrators cannot afford per call).
  virtual FeatureShape output_shape(const FeatureShape& input_shape) const = 0;

  virtual LayerInfo info(const FeatureShape& input_shape) const = 0;
  virtual std::string name() const = 0;
};

/// 1-bit convolution (Eq. 2). Holds the channel-packed kernel;
/// forward_into binarizes + packs its input (the sign that precedes each
/// binary conv in ReActNet) and runs the xnor/popcount engine.
class BinaryConv2d final : public Layer {
 public:
  BinaryConv2d(std::string name, PackedKernel kernel, ConvGeometry geometry);

  /// Packs the input, ringed with the geometry's padding, into the
  /// workspace's shared pack scratch (caller-provided storage, no
  /// per-call pack allocation), then runs forward_packed.
  void forward_into(ConstTensorView input, TensorView output,
                    Workspace& workspace) const override;
  /// Convolve an already packed input into `output`; its ring must equal
  /// geometry().padding. Lets convs that read the same tensor share one
  /// pack. An `epilogue` fuses the block's batch norm, residual and
  /// RPReLU into the conv (binary_conv2d_into).
  void forward_packed(const PackedFeature& input, TensorView output,
                      const ConvEpilogue* epilogue = nullptr) const;
  FeatureShape output_shape(const FeatureShape& input_shape) const override {
    return geometry_.output_shape(input_shape, kernel_.shape());
  }
  LayerInfo info(const FeatureShape& input_shape) const override;
  std::string name() const override { return name_; }

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
class Int8Conv2d final : public Layer {
 public:
  /// Quantizes `weights` symmetrically to int8.
  Int8Conv2d(std::string name, const WeightTensor& weights,
             std::vector<float> bias, ConvGeometry geometry,
             OpClass op_class = OpClass::kInputLayer);

  void forward_into(ConstTensorView input, TensorView output,
                    Workspace& workspace) const override;
  FeatureShape output_shape(const FeatureShape& input_shape) const override {
    return geometry_.output_shape(input_shape, shape_);
  }
  LayerInfo info(const FeatureShape& input_shape) const override;
  std::string name() const override { return name_; }

 private:
  std::string name_;
  KernelShape shape_;
  std::vector<std::int8_t> weights_;
  /// weights_ as the AVX2 kernel's int16 tap pairs (int8_kernels.h).
  std::vector<std::int32_t> weight_pairs_;
  std::vector<float> bias_;
  float weight_scale_ = 1.0f;
  ConvGeometry geometry_;
  OpClass op_class_;
};

/// 8-bit quantized fully-connected classifier (the output layer).
/// Expects a Cx1x1 input. Dispatches like Int8Conv2d: on AVX2 each
/// output is a _mm256_madd_epi16 row dot product, exact in int32 (the
/// constructor caps in_features * 127^2 below 2^31; the paper's 1024
/// features give 16,516,096 < 2^24), then the scalar dequantization.
/// Any non-finite weight or input value is a CheckError.
class Int8Linear final : public Layer {
 public:
  /// weights laid out [out][in]; quantized symmetrically to int8.
  Int8Linear(std::string name, std::int64_t in_features,
             std::int64_t out_features, std::vector<float> weights,
             std::vector<float> bias);

  void forward_into(ConstTensorView input, TensorView output,
                    Workspace& workspace) const override;
  FeatureShape output_shape(const FeatureShape& input_shape) const override;
  LayerInfo info(const FeatureShape& input_shape) const override;
  std::string name() const override { return name_; }

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
class BatchNorm final : public Layer {
 public:
  BatchNorm(std::string name, std::vector<float> scale,
            std::vector<float> bias);

  void forward_into(ConstTensorView input, TensorView output,
                    Workspace& workspace) const override;  // alias-safe
  FeatureShape output_shape(const FeatureShape& input_shape) const override {
    return input_shape;
  }
  LayerInfo info(const FeatureShape& input_shape) const override;
  std::string name() const override { return name_; }

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
class RPReLU final : public Layer {
 public:
  RPReLU(std::string name, std::vector<float> shift_in,
         std::vector<float> slope, std::vector<float> shift_out);

  void forward_into(ConstTensorView input, TensorView output,
                    Workspace& workspace) const override;  // alias-safe
  FeatureShape output_shape(const FeatureShape& input_shape) const override {
    return input_shape;
  }
  LayerInfo info(const FeatureShape& input_shape) const override;
  std::string name() const override { return name_; }

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
class AvgPool2x2 final : public Layer {
 public:
  void forward_into(ConstTensorView input, TensorView output,
                    Workspace& workspace) const override;
  FeatureShape output_shape(const FeatureShape& input_shape) const override {
    return {input_shape.channels, input_shape.height / 2,
            input_shape.width / 2};
  }
  LayerInfo info(const FeatureShape& input_shape) const override;
  std::string name() const override { return "avgpool2x2"; }
};

/// Global average pooling to Cx1x1 (before the classifier).
class GlobalAvgPool final : public Layer {
 public:
  void forward_into(ConstTensorView input, TensorView output,
                    Workspace& workspace) const override;
  FeatureShape output_shape(const FeatureShape& input_shape) const override {
    return {input_shape.channels, 1, 1};
  }
  LayerInfo info(const FeatureShape& input_shape) const override;
  std::string name() const override { return "global_avgpool"; }
};

/// Element-wise sum of two equally-shaped views (the residual
/// connection); `out` may alias `a` (the in-place residual). The block
/// forward path adds its residuals inside the fused conv epilogue; this
/// is the unfused oracle.
void residual_add_into(ConstTensorView a, ConstTensorView b, TensorView out);

}  // namespace bkc::bnn
