#include "tensor/tensor.h"

namespace bkc {

Tensor::Tensor(FeatureShape shape)
    : shape_(shape), data_(static_cast<std::size_t>(shape.size()), 0.0f) {
  check(shape.channels >= 0 && shape.height >= 0 && shape.width >= 0,
        "Tensor: negative dimension");
}

Tensor::Tensor(FeatureShape shape, std::vector<float> data)
    : shape_(shape), data_(std::move(data)) {
  check(static_cast<std::int64_t>(data_.size()) == shape.size(),
        "Tensor: data size does not match shape ", shape);
}

float& Tensor::at(std::int64_t c, std::int64_t y, std::int64_t x) {
  check(c >= 0 && c < shape_.channels && y >= 0 && y < shape_.height &&
            x >= 0 && x < shape_.width,
        "Tensor::at out of range");
  return data_[static_cast<std::size_t>((c * shape_.height + y) *
                                            shape_.width +
                                        x)];
}

float Tensor::at(std::int64_t c, std::int64_t y, std::int64_t x) const {
  return const_cast<Tensor*>(this)->at(c, y, x);
}

float Tensor::at_padded(std::int64_t c, std::int64_t y, std::int64_t x,
                        float pad) const {
  check(c >= 0 && c < shape_.channels, "Tensor::at_padded channel range");
  if (y < 0 || y >= shape_.height || x < 0 || x >= shape_.width) return pad;
  return at(c, y, x);
}

WeightTensor::WeightTensor(KernelShape shape)
    : shape_(shape), data_(static_cast<std::size_t>(shape.size()), 0.0f) {
  check(shape.out_channels >= 0 && shape.in_channels >= 0 &&
            shape.kernel_h >= 0 && shape.kernel_w >= 0,
        "WeightTensor: negative dimension");
}

WeightTensor::WeightTensor(KernelShape shape, std::vector<float> data)
    : shape_(shape), data_(std::move(data)) {
  check(static_cast<std::int64_t>(data_.size()) == shape.size(),
        "WeightTensor: data size does not match shape ", shape);
}

float& WeightTensor::at(std::int64_t o, std::int64_t i, std::int64_t ky,
                        std::int64_t kx) {
  check(o >= 0 && o < shape_.out_channels && i >= 0 &&
            i < shape_.in_channels && ky >= 0 && ky < shape_.kernel_h &&
            kx >= 0 && kx < shape_.kernel_w,
        "WeightTensor::at out of range");
  return data_[static_cast<std::size_t>(
      ((o * shape_.in_channels + i) * shape_.kernel_h + ky) *
          shape_.kernel_w +
      kx)];
}

float WeightTensor::at(std::int64_t o, std::int64_t i, std::int64_t ky,
                       std::int64_t kx) const {
  return const_cast<WeightTensor*>(this)->at(o, i, ky, kx);
}

Tensor reference_conv2d(const Tensor& input, const WeightTensor& weights,
                        ConvGeometry geometry, float pad_value) {
  const FeatureShape out_shape =
      geometry.output_shape(input.shape(), weights.shape());
  Tensor out(out_shape);
  const auto& k = weights.shape();
  for (std::int64_t o = 0; o < out_shape.channels; ++o) {
    for (std::int64_t oy = 0; oy < out_shape.height; ++oy) {
      for (std::int64_t ox = 0; ox < out_shape.width; ++ox) {
        double acc = 0.0;
        const std::int64_t base_y = oy * geometry.stride - geometry.padding;
        const std::int64_t base_x = ox * geometry.stride - geometry.padding;
        for (std::int64_t i = 0; i < k.in_channels; ++i) {
          for (std::int64_t ky = 0; ky < k.kernel_h; ++ky) {
            for (std::int64_t kx = 0; kx < k.kernel_w; ++kx) {
              const float v =
                  input.at_padded(i, base_y + ky, base_x + kx, pad_value);
              acc += static_cast<double>(v) * weights.at(o, i, ky, kx);
            }
          }
        }
        out.at(o, oy, ox) = static_cast<float>(acc);
      }
    }
  }
  return out;
}

}  // namespace bkc
