#include "bnn/bitpack.h"

#include "util/check.h"
#include "util/thread_pool.h"

namespace bkc::bnn {

std::uint64_t channel_tail_mask(std::int64_t channels) {
  check(channels > 0, "channel_tail_mask: channels must be positive");
  const std::int64_t rem = channels % kWordBits;
  return rem == 0 ? ~0ULL : ((1ULL << rem) - 1);
}

PackedFeature::PackedFeature(FeatureShape shape, std::int64_t padding) {
  reshape(shape, padding);
}

void PackedFeature::reshape(FeatureShape shape, std::int64_t padding) {
  check(shape.channels > 0 && shape.height > 0 && shape.width > 0,
        "PackedFeature::reshape: dimensions must be positive");
  check(padding >= 0, "PackedFeature::reshape: negative padding");
  shape_ = shape;
  padding_ = padding;
  words_per_pixel_ = words_per_group(shape.channels);
  tail_mask_ = channel_tail_mask(shape.channels);
  // assign() reuses capacity when it suffices (the reserve_words
  // contract); zero-filling restores the tail-lane and ring layout
  // invariant.
  words_.assign(static_cast<std::size_t>((shape.height + 2 * padding) *
                                         (shape.width + 2 * padding) *
                                         words_per_pixel_),
                0);
}

void PackedFeature::reserve_words(std::int64_t words) {
  check(words >= 0, "PackedFeature::reserve_words: negative count");
  words_.reserve(static_cast<std::size_t>(words));
}

std::span<const std::uint64_t> PackedFeature::at(std::int64_t y,
                                                 std::int64_t x) const {
  check(y >= 0 && y < shape_.height && x >= 0 && x < shape_.width,
        "PackedFeature::at out of range");
  const auto offset = static_cast<std::size_t>(
      ((y + padding_) * (shape_.width + 2 * padding_) + x + padding_) *
      words_per_pixel_);
  return {words_.data() + offset,
          static_cast<std::size_t>(words_per_pixel_)};
}

std::span<std::uint64_t> PackedFeature::at(std::int64_t y, std::int64_t x) {
  auto view = static_cast<const PackedFeature*>(this)->at(y, x);
  return {const_cast<std::uint64_t*>(view.data()), view.size()};
}

int PackedFeature::bit(std::int64_t c, std::int64_t y, std::int64_t x) const {
  check(c >= 0 && c < shape_.channels, "PackedFeature::bit channel range");
  const auto view = at(y, x);
  return static_cast<int>(
      (view[static_cast<std::size_t>(c / kWordBits)] >> (c % kWordBits)) & 1);
}

void PackedFeature::set_bit(std::int64_t c, std::int64_t y, std::int64_t x,
                            int value) {
  check(c >= 0 && c < shape_.channels, "PackedFeature::set_bit channel range");
  check(value == 0 || value == 1, "PackedFeature::set_bit value must be 0/1");
  auto view = at(y, x);
  auto& word = view[static_cast<std::size_t>(c / kWordBits)];
  const std::uint64_t mask = 1ULL << (c % kWordBits);
  word = value ? (word | mask) : (word & ~mask);
}

PackedKernel::PackedKernel(KernelShape shape)
    : shape_(shape),
      words_per_position_(words_per_group(shape.in_channels)),
      tail_mask_(channel_tail_mask(shape.in_channels)),
      words_(static_cast<std::size_t>(shape.out_channels * shape.kernel_h *
                                      shape.kernel_w * words_per_position_),
             0) {
  check(shape.out_channels > 0 && shape.in_channels > 0 &&
            shape.kernel_h > 0 && shape.kernel_w > 0,
        "PackedKernel: dimensions must be positive");
}

std::span<const std::uint64_t> PackedKernel::at(std::int64_t o,
                                                std::int64_t ky,
                                                std::int64_t kx) const {
  check(o >= 0 && o < shape_.out_channels && ky >= 0 &&
            ky < shape_.kernel_h && kx >= 0 && kx < shape_.kernel_w,
        "PackedKernel::at out of range");
  const auto offset = static_cast<std::size_t>(
      ((o * shape_.kernel_h + ky) * shape_.kernel_w + kx) *
      words_per_position_);
  return {words_.data() + offset,
          static_cast<std::size_t>(words_per_position_)};
}

std::span<std::uint64_t> PackedKernel::at(std::int64_t o, std::int64_t ky,
                                          std::int64_t kx) {
  auto view = static_cast<const PackedKernel*>(this)->at(o, ky, kx);
  return {const_cast<std::uint64_t*>(view.data()), view.size()};
}

int PackedKernel::bit(std::int64_t o, std::int64_t i, std::int64_t ky,
                      std::int64_t kx) const {
  check(i >= 0 && i < shape_.in_channels, "PackedKernel::bit channel range");
  const auto view = at(o, ky, kx);
  return static_cast<int>(
      (view[static_cast<std::size_t>(i / kWordBits)] >> (i % kWordBits)) & 1);
}

void PackedKernel::set_bit(std::int64_t o, std::int64_t i, std::int64_t ky,
                           std::int64_t kx, int value) {
  check(i >= 0 && i < shape_.in_channels,
        "PackedKernel::set_bit channel range");
  check(value == 0 || value == 1, "PackedKernel::set_bit value must be 0/1");
  auto view = at(o, ky, kx);
  auto& word = view[static_cast<std::size_t>(i / kWordBits)];
  const std::uint64_t mask = 1ULL << (i % kWordBits);
  word = value ? (word | mask) : (word & ~mask);
}

PackedFeature pack_feature(const Tensor& input, std::int64_t padding) {
  PackedFeature packed(input.shape(), padding);
  const auto& s = input.shape();
  for (std::int64_t c = 0; c < s.channels; ++c) {
    for (std::int64_t y = 0; y < s.height; ++y) {
      for (std::int64_t x = 0; x < s.width; ++x) {
        packed.set_bit(c, y, x, input.at(c, y, x) >= 0.0f ? 1 : 0);
      }
    }
  }
  return packed;
}

void pack_feature_into(ConstTensorView input, PackedFeature& out,
                       std::int64_t padding) {
  out.reshape(input.shape(), padding);
  const FeatureShape& s = input.shape();
  const std::int64_t wpp = out.words_per_pixel();
  const std::int64_t row_words = (s.width + 2 * padding) * wpp;
  // Storage of logical pixel (0, 0); logical rows are row_words apart.
  std::uint64_t* origin = out.at(0, 0).data();
  const float* data = input.data().data();
  // Channel-major like the CHW input: each channel contributes one bit
  // lane, OR'd over its spatial rows with sequential float reads. Words
  // start zeroed (reshape), so OR alone builds the map, and the
  // invariant (tail lanes and the ring stay zero) holds by
  // construction. A range of rows owns its words outright, so rows fan
  // out across threads with identical bits at any thread count.
  const auto pack_rows = [&](std::int64_t y_begin, std::int64_t y_end) {
    for (std::int64_t c = 0; c < s.channels; ++c) {
      const std::uint64_t mask = 1ULL << (c % kWordBits);
      const float* plane = data + c * s.height * s.width;
      for (std::int64_t y = y_begin; y < y_end; ++y) {
        std::uint64_t* word = origin + y * row_words + c / kWordBits;
        const float* row = plane + y * s.width;
        for (std::int64_t x = 0; x < s.width; ++x) {
          word[x * wpp] |= row[x] >= 0.0f ? mask : 0;
        }
      }
    }
  };
  parallel_for(s.height, current_num_threads(), pack_rows);
}

Tensor unpack_feature(const PackedFeature& packed) {
  Tensor out(packed.shape());
  const auto& s = packed.shape();
  for (std::int64_t c = 0; c < s.channels; ++c) {
    for (std::int64_t y = 0; y < s.height; ++y) {
      for (std::int64_t x = 0; x < s.width; ++x) {
        out.at(c, y, x) = packed.bit(c, y, x) ? 1.0f : -1.0f;
      }
    }
  }
  return out;
}

PackedKernel pack_kernel(const WeightTensor& weights) {
  PackedKernel packed(weights.shape());
  const auto& k = weights.shape();
  for (std::int64_t o = 0; o < k.out_channels; ++o) {
    for (std::int64_t i = 0; i < k.in_channels; ++i) {
      for (std::int64_t ky = 0; ky < k.kernel_h; ++ky) {
        for (std::int64_t kx = 0; kx < k.kernel_w; ++kx) {
          packed.set_bit(o, i, ky, kx,
                         weights.at(o, i, ky, kx) >= 0.0f ? 1 : 0);
        }
      }
    }
  }
  return packed;
}

WeightTensor unpack_kernel(const PackedKernel& packed) {
  WeightTensor out(packed.shape());
  const auto& k = packed.shape();
  for (std::int64_t o = 0; o < k.out_channels; ++o) {
    for (std::int64_t i = 0; i < k.in_channels; ++i) {
      for (std::int64_t ky = 0; ky < k.kernel_h; ++ky) {
        for (std::int64_t kx = 0; kx < k.kernel_w; ++kx) {
          out.at(o, i, ky, kx) = packed.bit(o, i, ky, kx) ? 1.0f : -1.0f;
        }
      }
    }
  }
  return out;
}

}  // namespace bkc::bnn
