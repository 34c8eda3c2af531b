#include "bnn/layers.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "bnn/int8_kernels.h"
#include "bnn/memory_plan.h"
#include "util/check.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace bkc::bnn {

// ---------------------------------------------------------- BinaryConv2d

BinaryConv2d::BinaryConv2d(std::string name, PackedKernel kernel,
                           ConvGeometry geometry)
    : name_(std::move(name)), kernel_(std::move(kernel)), geometry_(geometry) {}

void BinaryConv2d::forward_into(ConstTensorView input, TensorView output,
                                Workspace& workspace) const {
  // The pack scratch is the workspace's shared PackedFeature: reshape
  // reuses its reserved word storage, so packing allocates nothing.
  // pack_feature_into applies Eq. 1's sign (bit = v >= 0) as it packs.
  PackedFeature& packed = workspace.pack_scratch();
  pack_feature_into(input, packed, geometry_.padding);
  forward_packed(packed, output);
}

void BinaryConv2d::forward_packed(const PackedFeature& input,
                                  TensorView output,
                                  const ConvEpilogue* epilogue) const {
  binary_conv2d_into(input, kernel_, geometry_, output, epilogue);
}

OpRecord BinaryConv2d::op_record(const FeatureShape& input) const {
  const auto& k = kernel_.shape();
  const FeatureShape out = output_shape(input);
  const bool is_3x3 = k.kernel_h == 3 && k.kernel_w == 3;
  const bool is_1x1 = k.kernel_h == 1 && k.kernel_w == 1;
  return {.name = name_,
          .op_class = is_3x3   ? OpClass::kConv3x3
                      : is_1x1 ? OpClass::kConv1x1
                               : OpClass::kOther,
          .storage_bits = static_cast<std::uint64_t>(k.size()),
          .macs = static_cast<std::uint64_t>(out.size() *
                                             k.receptive_size()),
          .precision_bits = 1,
          .input_shape = input,
          .output_shape = out,
          .kernel_shape = k,
          .geometry = geometry_};
}

void BinaryConv2d::set_kernel(PackedKernel kernel) {
  check(kernel.shape() == kernel_.shape(),
        "BinaryConv2d::set_kernel: shape must not change");
  kernel_ = std::move(kernel);
}

// ------------------------------------------------------------ Int8Conv2d

namespace {

/// Symmetric scale so that max |v| maps to 127. Every value must be
/// finite: std::max drops a NaN and an inf makes the scale inf, and
/// either would reach quantize_value's float-to-int8 cast as NaN.
float symmetric_scale(std::span<const float> values, const char* what) {
  float max_abs = 0.0f;
  for (std::size_t i = 0; i < values.size(); ++i) {
    check(std::isfinite(values[i]), what,
          ": int8 quantization needs finite values; element ", i,
          " is not finite");
    max_abs = std::max(max_abs, std::abs(values[i]));
  }
  return max_abs > 0.0f ? max_abs / 127.0f : 1.0f;
}

std::int8_t quantize_value(float v, float scale) {
  const float q = std::round(v / scale);
  return static_cast<std::int8_t>(std::clamp(q, -127.0f, 127.0f));
}

/// Taps per output beyond which taps * 127^2 overflows the kernels'
/// int32 accumulators.
constexpr std::int64_t kMaxInt8Taps =
    std::numeric_limits<std::int32_t>::max() / (127 * 127);

/// Quantize `input` into the zero-ringed phase-split plane (layout in
/// bnn/int8_kernels.h). Only the AVX2 path reads that layout; builds
/// without it keep the function compiled but unused.
[[maybe_unused]] void quantize_into_plane(ConstTensorView input,
                                          float scale, std::int64_t padding,
                                          const Int8ConvPlane& layout,
                                          std::span<std::int8_t> plane) {
  std::fill(plane.begin(), plane.end(), std::int8_t{0});
  const FeatureShape& s = input.shape();
  const std::int64_t stride = layout.stride;
  for (std::int64_t c = 0; c < s.channels; ++c) {
    for (std::int64_t y = 0; y < s.height; ++y) {
      const float* in_row = input.data().data() + (c * s.height + y) * s.width;
      std::int8_t* row = plane.data() + c * layout.channel_pitch() +
                         (y + padding) * layout.row_pitch();
      for (std::int64_t phase = 0; phase < stride; ++phase) {
        // First input column whose padded column x + padding has this
        // phase; every stride-th column after it follows contiguously.
        const std::int64_t x0 =
            ((phase - padding) % stride + stride) % stride;
        std::int8_t* dst =
            row + phase * layout.phase_width + (x0 + padding) / stride;
        for (std::int64_t x = x0; x < s.width; x += stride) {
          *dst++ = quantize_value(in_row[x], scale);
        }
      }
    }
  }
}

}  // namespace

Int8ConvPlane int8_conv_plane(const FeatureShape& input,
                              const KernelShape& kernel,
                              ConvGeometry geometry) {
  const FeatureShape out = geometry.output_shape(input, kernel);
  const std::int64_t stride = geometry.stride;
  const std::int64_t padded_width = input.width + 2 * geometry.padding;
  return {.channels = input.channels,
          .rows = input.height + 2 * geometry.padding,
          .stride = stride,
          .phase_width = std::max((padded_width + stride - 1) / stride,
                                  int8_conv_step_columns(out.width) +
                                      (kernel.kernel_w - 1) / stride)};
}

Int8Conv2d::Int8Conv2d(std::string name, const WeightTensor& weights,
                       std::vector<float> bias, ConvGeometry geometry)
    : name_(std::move(name)),
      shape_(weights.shape()),
      bias_(std::move(bias)),
      geometry_(geometry) {
  check(static_cast<std::int64_t>(bias_.size()) == shape_.out_channels,
        "Int8Conv2d: bias size must equal out_channels");
  check(shape_.receptive_size() <= kMaxInt8Taps, "Int8Conv2d: ",
        shape_.receptive_size(),
        " taps per output overflow int32 accumulation (max ", kMaxInt8Taps,
        ")");
  weight_scale_ = symmetric_scale(weights.data(), "Int8Conv2d weights");
  weights_.reserve(static_cast<std::size_t>(weights.size()));
  for (float v : weights.data()) {
    weights_.push_back(quantize_value(v, weight_scale_));
  }
  // Taps kx and kx + 1 of each kernel row as one int32 of two int16
  // halves, the operand of the AVX2 kernel's madd (int8_kernels.h).
  const std::size_t kw = static_cast<std::size_t>(shape_.kernel_w);
  for (std::size_t row = 0; row < weights_.size(); row += kw) {
    for (std::size_t kx = 0; kx < kw; kx += 2) {
      const std::int8_t hi = kx + 1 < kw ? weights_[row + kx + 1] : 0;
      weight_pairs_.push_back(static_cast<std::int32_t>(
          static_cast<std::uint16_t>(weights_[row + kx]) |
          static_cast<std::uint32_t>(static_cast<std::uint16_t>(hi)) << 16));
    }
  }
}

void Int8Conv2d::forward_into(ConstTensorView input, TensorView out,
                              Workspace& workspace) const {
  const FeatureShape in_shape = input.shape();
  check(in_shape.channels == shape_.in_channels,
        "Int8Conv2d: input channel mismatch");
  const FeatureShape out_shape = geometry_.output_shape(in_shape, shape_);
  check(out.shape() == out_shape,
        "Int8Conv2d: output view shape mismatch");

  // Dynamic symmetric activation quantization (padding quantizes to 0).
  const float in_scale = symmetric_scale(input.data(), "Int8Conv2d input");
  const float dequant = weight_scale_ * in_scale;
  // The quantization plane comes from the arena and is released LIFO
  // before returning, so consecutive int8 layers reuse the same bytes.
  const Int8ConvPlane layout = int8_conv_plane(in_shape, shape_, geometry_);
  Arena& arena = workspace.arena();
  const std::size_t mark = arena.mark();
  const std::span<std::int8_t> plane =
      arena.allocate_span<std::int8_t>(layout.bytes());

#if defined(BKC_HAVE_AVX2)
  if (!simd::scalar_forced() && simd::cpu_supports_avx2()) {
    quantize_into_plane(input, in_scale, geometry_.padding, layout, plane);
    // The kernel's loads carry no bounds check, so confirm once per
    // call that the furthest tap of the last step stays in the plane:
    // last channel, last output row, bottom kernel row, the tap column
    // furthest into its row, and the end of the last step.
    std::int64_t furthest_tap = 0;
    for (std::int64_t kx = 0; kx < shape_.kernel_w; ++kx) {
      furthest_tap = std::max(furthest_tap, kx % geometry_.stride *
                                                    layout.phase_width +
                                                kx / geometry_.stride);
    }
    const std::int64_t last_read =
        (layout.channels - 1) * layout.channel_pitch() +
        ((out_shape.height - 1) * geometry_.stride + shape_.kernel_h - 1) *
            layout.row_pitch() +
        furthest_tap + int8_conv_step_columns(out_shape.width) - 1;
    check(last_read < layout.bytes(),
          "Int8Conv2d: the last vector step would read past the plane");
    // Output channels are independent, so they fan out across threads
    // as in binary_conv2d_into; each pixel's integer sum is formed in
    // isolation, so results are bit-identical at any thread count.
    const auto run = [&](std::int64_t o_begin, std::int64_t o_end) {
      internal::int8_conv_avx2(plane, layout, shape_, weight_pairs_,
                               dequant, bias_, out, o_begin, o_end);
    };
    parallel_for(out_shape.channels, current_num_threads(), run);
    arena.rewind(mark);
    return;
  }
#endif

  // Scalar reference: a dense quantized copy in the plane's front bytes,
  // every tap bounds-checked.
  const std::span<std::int8_t> q_input = plane.first(input.size());
  for (std::size_t i = 0; i < q_input.size(); ++i) {
    q_input[i] = quantize_value(input.data()[i], in_scale);
  }
  auto q_at = [&](std::int64_t c, std::int64_t y, std::int64_t x) -> int {
    if (y < 0 || y >= in_shape.height || x < 0 || x >= in_shape.width) {
      return 0;
    }
    return q_input[static_cast<std::size_t>(
        (c * in_shape.height + y) * in_shape.width + x)];
  };
  auto w_at = [&](std::int64_t o, std::int64_t i, std::int64_t ky,
                  std::int64_t kx) -> int {
    return weights_[static_cast<std::size_t>(
        ((o * shape_.in_channels + i) * shape_.kernel_h + ky) *
            shape_.kernel_w +
        kx)];
  };

  for (std::int64_t o = 0; o < out_shape.channels; ++o) {
    for (std::int64_t oy = 0; oy < out_shape.height; ++oy) {
      for (std::int64_t ox = 0; ox < out_shape.width; ++ox) {
        std::int64_t acc = 0;
        const std::int64_t base_y = oy * geometry_.stride - geometry_.padding;
        const std::int64_t base_x = ox * geometry_.stride - geometry_.padding;
        for (std::int64_t i = 0; i < shape_.in_channels; ++i) {
          for (std::int64_t ky = 0; ky < shape_.kernel_h; ++ky) {
            for (std::int64_t kx = 0; kx < shape_.kernel_w; ++kx) {
              acc += static_cast<std::int64_t>(
                         q_at(i, base_y + ky, base_x + kx)) *
                     w_at(o, i, ky, kx);
            }
          }
        }
        out.at(o, oy, ox) = static_cast<float>(acc) * dequant +
                            bias_[static_cast<std::size_t>(o)];
      }
    }
  }
  arena.rewind(mark);
}

OpRecord Int8Conv2d::op_record(const FeatureShape& input) const {
  const FeatureShape out = output_shape(input);
  return {.name = name_,
          .op_class = OpClass::kInputLayer,
          .storage_bits = static_cast<std::uint64_t>(shape_.size()) * 8 +
                          static_cast<std::uint64_t>(bias_.size()) * 32,
          .macs = static_cast<std::uint64_t>(out.size() *
                                             shape_.receptive_size()),
          .precision_bits = 8,
          .input_shape = input,
          .output_shape = out,
          .kernel_shape = shape_,
          .geometry = geometry_};
}

// ------------------------------------------------------------ Int8Linear

Int8Linear::Int8Linear(std::string name, std::int64_t in_features,
                       std::int64_t out_features, std::vector<float> weights,
                       std::vector<float> bias)
    : name_(std::move(name)),
      in_features_(in_features),
      out_features_(out_features),
      bias_(std::move(bias)) {
  check(static_cast<std::int64_t>(weights.size()) ==
            in_features * out_features,
        "Int8Linear: weight size must be in*out");
  check(static_cast<std::int64_t>(bias_.size()) == out_features,
        "Int8Linear: bias size must equal out_features");
  check(in_features <= kMaxInt8Taps, "Int8Linear: ", in_features,
        " taps per output overflow int32 accumulation (max ", kMaxInt8Taps,
        ")");
  weight_scale_ = symmetric_scale(weights, "Int8Linear weights");
  weights_.reserve(weights.size());
  for (float v : weights) weights_.push_back(quantize_value(v, weight_scale_));
}

FeatureShape Int8Linear::output_shape(const FeatureShape& input_shape) const {
  check(input_shape.channels == in_features_ && input_shape.height == 1 &&
            input_shape.width == 1,
        "Int8Linear expects a Cx1x1 input");
  return {out_features_, 1, 1};
}

void Int8Linear::forward_into(ConstTensorView input, TensorView out,
                              Workspace& workspace) const {
  const FeatureShape in_shape = input.shape();
  check(in_shape.channels == in_features_ && in_shape.height == 1 &&
            in_shape.width == 1,
        "Int8Linear expects a Cx1x1 input");
  check(out.shape() == FeatureShape{out_features_, 1, 1},
        "Int8Linear: output view shape mismatch");
  const float in_scale = symmetric_scale(input.data(), "Int8Linear input");
  Arena& arena = workspace.arena();
  const std::size_t mark = arena.mark();
  const std::span<std::int8_t> q_input =
      arena.allocate_span<std::int8_t>(input.size());
  for (std::size_t i = 0; i < q_input.size(); ++i) {
    q_input[i] = quantize_value(input.data()[i], in_scale);
  }
  const float dequant = weight_scale_ * in_scale;
#if defined(BKC_HAVE_AVX2)
  if (!simd::scalar_forced() && simd::cpu_supports_avx2()) {
    for (std::int64_t o = 0; o < out_features_; ++o) {
      const std::int32_t acc = internal::int8_dot_avx2(
          weights_.data() + o * in_features_, q_input.data(), in_features_);
      out.at(o, 0, 0) = static_cast<float>(acc) * dequant +
                        bias_[static_cast<std::size_t>(o)];
    }
    arena.rewind(mark);
    return;
  }
#endif
  for (std::int64_t o = 0; o < out_features_; ++o) {
    std::int64_t acc = 0;
    const std::size_t row = static_cast<std::size_t>(o * in_features_);
    for (std::int64_t i = 0; i < in_features_; ++i) {
      acc += static_cast<std::int64_t>(
                 weights_[row + static_cast<std::size_t>(i)]) *
             q_input[static_cast<std::size_t>(i)];
    }
    out.at(o, 0, 0) = static_cast<float>(acc) * dequant +
                      bias_[static_cast<std::size_t>(o)];
  }
  arena.rewind(mark);
}

OpRecord Int8Linear::op_record(const FeatureShape& input) const {
  // No kernel shape: plan_reactnet_forward tells the classifier from
  // the stem by its zero kernel_shape.
  return {.name = name_,
          .op_class = OpClass::kOutputLayer,
          .storage_bits =
              static_cast<std::uint64_t>(in_features_ * out_features_) * 8 +
              static_cast<std::uint64_t>(out_features_) * 32,
          .macs = static_cast<std::uint64_t>(in_features_ * out_features_),
          .precision_bits = 8,
          .input_shape = input,
          .output_shape = output_shape(input)};
}

// -------------------------------------------------------------- BatchNorm

BatchNorm::BatchNorm(std::string name, std::vector<float> scale,
                     std::vector<float> bias)
    : name_(std::move(name)), scale_(std::move(scale)), bias_(std::move(bias)) {
  check(scale_.size() == bias_.size(),
        "BatchNorm: scale/bias size mismatch");
  check(!scale_.empty(), "BatchNorm: empty parameters");
}

void BatchNorm::forward_into(ConstTensorView input, TensorView output,
                             Workspace& workspace) const {
  (void)workspace;
  const FeatureShape& s = input.shape();
  check(s.channels == static_cast<std::int64_t>(scale_.size()),
        "BatchNorm: channel mismatch");
  check(output.shape() == s, "BatchNorm::forward_into: shape mismatch");
  const float* in = input.data().data();
  float* out = output.data().data();
  const std::int64_t plane = s.height * s.width;
  // Element-wise in order, so exact aliasing (in == out) is safe.
  for (std::int64_t c = 0; c < s.channels; ++c) {
    const float scale = scale_[static_cast<std::size_t>(c)];
    const float bias = bias_[static_cast<std::size_t>(c)];
    const float* ip = in + c * plane;
    float* op = out + c * plane;
    for (std::int64_t i = 0; i < plane; ++i) op[i] = ip[i] * scale + bias;
  }
}

OpRecord BatchNorm::op_record(const FeatureShape& input) const {
  return {.name = name_,
          .op_class = OpClass::kOther,
          .storage_bits = static_cast<std::uint64_t>(scale_.size()) * 2 * 32,
          .macs = static_cast<std::uint64_t>(input.size()),
          .precision_bits = 32,
          .input_shape = input,
          .output_shape = input};
}

// ---------------------------------------------------------------- RPReLU

RPReLU::RPReLU(std::string name, std::vector<float> shift_in,
               std::vector<float> slope, std::vector<float> shift_out)
    : name_(std::move(name)),
      shift_in_(std::move(shift_in)),
      slope_(std::move(slope)),
      shift_out_(std::move(shift_out)) {
  check(shift_in_.size() == slope_.size() &&
            slope_.size() == shift_out_.size(),
        "RPReLU: parameter size mismatch");
  check(!slope_.empty(), "RPReLU: empty parameters");
}

void RPReLU::forward_into(ConstTensorView input, TensorView output,
                          Workspace& workspace) const {
  (void)workspace;
  const FeatureShape& s = input.shape();
  check(s.channels == static_cast<std::int64_t>(slope_.size()),
        "RPReLU: channel mismatch");
  check(output.shape() == s, "RPReLU::forward_into: shape mismatch");
  const float* in = input.data().data();
  float* out = output.data().data();
  const std::int64_t plane = s.height * s.width;
  for (std::int64_t c = 0; c < s.channels; ++c) {
    const auto ci = static_cast<std::size_t>(c);
    const float shift_in = shift_in_[ci];
    const float slope = slope_[ci];
    const float shift_out = shift_out_[ci];
    const float* ip = in + c * plane;
    float* op = out + c * plane;
    for (std::int64_t i = 0; i < plane; ++i) {
      const float v = ip[i] - shift_in;
      op[i] = (v > 0.0f ? v : slope * v) + shift_out;
    }
  }
}

OpRecord RPReLU::op_record(const FeatureShape& input) const {
  return {.name = name_,
          .op_class = OpClass::kOther,
          .storage_bits = static_cast<std::uint64_t>(slope_.size()) * 3 * 32,
          .macs = static_cast<std::uint64_t>(input.size()),
          .precision_bits = 32,
          .input_shape = input,
          .output_shape = input};
}

// --------------------------------------------------------------- pooling

void AvgPool2x2::forward_into(ConstTensorView input, TensorView output,
                              Workspace& workspace) const {
  (void)workspace;
  const FeatureShape& s = input.shape();
  check(s.height % 2 == 0 && s.width % 2 == 0,
        "AvgPool2x2 expects even spatial dims");
  check(output.shape() ==
            FeatureShape{s.channels, s.height / 2, s.width / 2},
        "AvgPool2x2::forward_into: shape mismatch");
  const float* in = input.data().data();
  float* out = output.data().data();
  const std::int64_t oh = s.height / 2;
  const std::int64_t ow = s.width / 2;
  for (std::int64_t c = 0; c < s.channels; ++c) {
    const float* plane = in + c * s.height * s.width;
    float* oplane = out + c * oh * ow;
    for (std::int64_t y = 0; y < oh; ++y) {
      const float* row0 = plane + 2 * y * s.width;
      const float* row1 = row0 + s.width;
      for (std::int64_t x = 0; x < ow; ++x) {
        // Summation order (r0c0 + r0c1) + r1c0 + r1c1 is part of the
        // golden scores; keep it.
        oplane[y * ow + x] = 0.25f * (row0[2 * x] + row0[2 * x + 1] +
                                      row1[2 * x] + row1[2 * x + 1]);
      }
    }
  }
}

void GlobalAvgPool::forward_into(ConstTensorView input, TensorView output,
                                 Workspace& workspace) const {
  (void)workspace;
  const FeatureShape& s = input.shape();
  check(output.shape() == FeatureShape{s.channels, 1, 1},
        "GlobalAvgPool::forward_into: shape mismatch");
  const float* in = input.data().data();
  float* out = output.data().data();
  const std::int64_t plane = s.height * s.width;
  const auto area = static_cast<float>(plane);
  for (std::int64_t c = 0; c < s.channels; ++c) {
    const float* ip = in + c * plane;
    float sum = 0.0f;
    for (std::int64_t i = 0; i < plane; ++i) sum += ip[i];
    out[c] = sum / area;
  }
}

OpRecord GlobalAvgPool::op_record(const FeatureShape& input) const {
  return {.name = name(),
          .op_class = OpClass::kOther,
          .storage_bits = 0,
          .macs = static_cast<std::uint64_t>(input.size()),
          .precision_bits = 32,
          .input_shape = input,
          .output_shape = output_shape(input)};
}

// -------------------------------------------------------------- topology

void residual_add_into(ConstTensorView a, ConstTensorView b, TensorView out) {
  check(a.shape() == b.shape(), "residual_add_into: operand shape mismatch");
  check(out.shape() == a.shape(), "residual_add_into: output shape mismatch");
  const float* ad = a.data().data();
  const float* bd = b.data().data();
  float* od = out.data().data();
  const std::int64_t n = out.size();
  // Exact aliasing of out with a is safe (the in-place residual).
  for (std::int64_t i = 0; i < n; ++i) od[i] = ad[i] + bd[i];
}

}  // namespace bkc::bnn
