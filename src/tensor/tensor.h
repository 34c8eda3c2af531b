#pragma once
// Minimal dense float tensor in CHW layout.
//
// This is the full-precision substrate: reference convolutions, batch
// norm / PReLU arithmetic and the int8-quantized input/output layers all
// operate on Tensor storage (through the views below). The binary fast
// path uses the packed containers in bnn/bitpack.h instead.

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/shape.h"
#include "util/check.h"

namespace bkc {

/// Dense row-major float tensor of rank 3 (CHW). Value semantics.
class Tensor {
 public:
  Tensor() = default;

  /// Zero-initialised tensor of the given shape.
  explicit Tensor(FeatureShape shape);

  /// Tensor with explicit contents; data.size() must equal shape.size().
  Tensor(FeatureShape shape, std::vector<float> data);

  const FeatureShape& shape() const { return shape_; }
  std::int64_t size() const { return shape_.size(); }
  bool empty() const { return data_.empty(); }

  float& at(std::int64_t c, std::int64_t y, std::int64_t x);
  float at(std::int64_t c, std::int64_t y, std::int64_t x) const;

  /// Value at (c, y, x) treating out-of-bounds spatial coordinates as
  /// `pad`. Channels must be in range. Used by reference convolutions.
  float at_padded(std::int64_t c, std::int64_t y, std::int64_t x,
                  float pad) const;

  std::span<float> data() { return data_; }
  std::span<const float> data() const { return data_; }

 private:
  FeatureShape shape_;
  std::vector<float> data_;
};

/// Non-owning mutable view of CHW float storage — a Tensor that lives
/// somewhere else, typically inside a Workspace arena. Shallow-const
/// like std::span: a `const TensorView` still refers to mutable
/// elements. Element access is bounds-checked.
class TensorView {
 public:
  TensorView() = default;

  /// View of `data` interpreted with `shape`; sizes must match.
  TensorView(FeatureShape shape, std::span<float> data)
      : shape_(shape), data_(data) {
    check(static_cast<std::int64_t>(data.size()) == shape.size(),
          "TensorView: data size does not match shape");
  }

  /// Every Tensor is implicitly viewable, so the forward_into API
  /// accepts plain tensors at call sites that own their storage.
  TensorView(Tensor& tensor)  // NOLINT(google-explicit-constructor)
      : shape_(tensor.shape()), data_(tensor.data()) {}

  const FeatureShape& shape() const { return shape_; }
  std::int64_t size() const { return shape_.size(); }
  std::span<float> data() const { return data_; }

  float& at(std::int64_t c, std::int64_t y, std::int64_t x) const {
    check(c >= 0 && c < shape_.channels && y >= 0 && y < shape_.height &&
              x >= 0 && x < shape_.width,
          "TensorView::at out of range");
    return data_[static_cast<std::size_t>(
        (c * shape_.height + y) * shape_.width + x)];
  }

  /// View of the contiguous channel range [first, first + count): CHW
  /// layout makes channel sub-ranges contiguous, which is what lets
  /// the expand-block 1x1 convs write straight into the two halves of
  /// a concat destination without an intermediate tensor.
  TensorView channels(std::int64_t first, std::int64_t count) const {
    check(first >= 0 && count >= 0 && first + count <= shape_.channels,
          "TensorView::channels out of range");
    const std::int64_t plane = shape_.height * shape_.width;
    return {{count, shape_.height, shape_.width},
            data_.subspan(static_cast<std::size_t>(first * plane),
                          static_cast<std::size_t>(count * plane))};
  }

 private:
  FeatureShape shape_;
  std::span<float> data_;
};

/// Read-only companion of TensorView; both Tensor and TensorView
/// convert implicitly.
class ConstTensorView {
 public:
  ConstTensorView() = default;

  ConstTensorView(FeatureShape shape, std::span<const float> data)
      : shape_(shape), data_(data) {
    check(static_cast<std::int64_t>(data.size()) == shape.size(),
          "ConstTensorView: data size does not match shape");
  }

  ConstTensorView(const Tensor& tensor)  // NOLINT(google-explicit-constructor)
      : shape_(tensor.shape()), data_(tensor.data()) {}

  ConstTensorView(TensorView view)  // NOLINT(google-explicit-constructor)
      : shape_(view.shape()), data_(view.data()) {}

  const FeatureShape& shape() const { return shape_; }
  std::int64_t size() const { return shape_.size(); }
  std::span<const float> data() const { return data_; }

  float at(std::int64_t c, std::int64_t y, std::int64_t x) const {
    check(c >= 0 && c < shape_.channels && y >= 0 && y < shape_.height &&
              x >= 0 && x < shape_.width,
          "ConstTensorView::at out of range");
    return data_[static_cast<std::size_t>(
        (c * shape_.height + y) * shape_.width + x)];
  }

  ConstTensorView channels(std::int64_t first, std::int64_t count) const {
    check(first >= 0 && count >= 0 && first + count <= shape_.channels,
          "ConstTensorView::channels out of range");
    const std::int64_t plane = shape_.height * shape_.width;
    return {{count, shape_.height, shape_.width},
            data_.subspan(static_cast<std::size_t>(first * plane),
                          static_cast<std::size_t>(count * plane))};
  }

 private:
  FeatureShape shape_;
  std::span<const float> data_;
};

/// Dense OIHW float weight tensor for reference/full-precision layers.
class WeightTensor {
 public:
  WeightTensor() = default;
  explicit WeightTensor(KernelShape shape);
  WeightTensor(KernelShape shape, std::vector<float> data);

  const KernelShape& shape() const { return shape_; }
  std::int64_t size() const { return shape_.size(); }

  float& at(std::int64_t o, std::int64_t i, std::int64_t ky, std::int64_t kx);
  float at(std::int64_t o, std::int64_t i, std::int64_t ky,
           std::int64_t kx) const;

  std::span<float> data() { return data_; }
  std::span<const float> data() const { return data_; }

 private:
  KernelShape shape_;
  std::vector<float> data_;
};

/// Reference (slow, obviously-correct) float convolution. All binary conv
/// implementations are tested for exact agreement against this on +/-1
/// tensors. Padding positions contribute `pad_value` (the paper pads
/// binary convs with -1, see Sec IV-B).
Tensor reference_conv2d(const Tensor& input, const WeightTensor& weights,
                        ConvGeometry geometry, float pad_value = -1.0f);

}  // namespace bkc
