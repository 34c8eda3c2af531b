#pragma once
// Channel packing (Sec IV-B, Fig 5): the daBNN-style memory layout.
//
// To keep CPU vector registers full, bits from *different channels* at
// the *same spatial position* are packed together into machine words:
// word w of pixel (y, x) holds channels [64w, 64w+63]. The same layout
// is used for kernels: word w of kernel position (o, ky, kx) holds input
// channels [64w, 64w+63]. A stored bit of 1 encodes +1 and 0 encodes -1.
//
// When the channel count is not a multiple of 64 the last word is only
// partially populated; `tail_mask` marks the valid lanes. (The paper's
// ReActNet channel counts are powers of two >= 32, so at most the first
// block uses a partial word; the general case is still fully supported
// and tested.)
//
// A packed feature map may carry a ring of `padding` zero pixels around
// the logical map: storage is a (height + 2p) x (width + 2p) plane and
// logical pixel (y, x) lives at storage pixel (y + p, x + p). A zero
// word is stored bit 0, i.e. -1, which is exactly the value the paper
// pads binary convolutions with (Sec IV-B), so a conv whose padding
// equals the ring reads every kernel tap from storage.
//
// Layout invariant: tail lanes *and* the padding ring are zero - storage
// bits above `channels` in the tail word and every word of the ring.
// The constructors zero-fill and set_bit / pack_feature_into touch valid
// lanes of logical pixels only. The fast convolution kernels
// (bnn/bconv_kernels.h) rely on this: a ring tap reads zero words, which
// is the scalar reference's padding term, and with both operands zero in
// the tail lanes every masked-off lane contributes a constant xnor
// agreement instead of needing a per-word mask.

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.h"

namespace bkc::bnn {

/// Bits per packing word. 64-bit words are the portable equivalent of
/// the 128-bit NEON registers daBNN targets; the timing model accounts
/// for register width separately.
inline constexpr int kWordBits = 64;

/// Number of words needed to hold `channels` one-bit lanes.
inline std::int64_t words_per_group(std::int64_t channels) {
  return (channels + kWordBits - 1) / kWordBits;
}

/// Mask of valid lanes in the last word of a channel group.
std::uint64_t channel_tail_mask(std::int64_t channels);

/// A binarized feature map in channel-packed layout.
class PackedFeature {
 public:
  PackedFeature() = default;

  /// Zero-initialised (all values -1) packed map of the given shape,
  /// surrounded by a zero ring `padding` pixels wide.
  explicit PackedFeature(FeatureShape shape, std::int64_t padding = 0);

  /// Re-dimension in place to `shape` with a `padding`-pixel ring,
  /// zeroing all words. Reuses the existing word storage when it is
  /// large enough (see reserve_words), so a Workspace can recycle one
  /// PackedFeature as pack scratch across every binary conv of a model
  /// without heap traffic.
  void reshape(FeatureShape shape, std::int64_t padding = 0);

  /// Pre-grow the word storage so later reshape() calls up to `words`
  /// total words never allocate.
  void reserve_words(std::int64_t words);

  /// Logical shape, without the ring.
  const FeatureShape& shape() const { return shape_; }
  /// Width of the zero ring, in pixels.
  std::int64_t padding() const { return padding_; }
  std::int64_t words_per_pixel() const { return words_per_pixel_; }
  std::uint64_t tail_mask() const { return tail_mask_; }

  /// Words for logical pixel (y, x), lowest channels in word 0 bit 0.
  std::span<const std::uint64_t> at(std::int64_t y, std::int64_t x) const;
  std::span<std::uint64_t> at(std::int64_t y, std::int64_t x);

  /// Get/set the bit for channel c at (y, x). 1 encodes +1.
  int bit(std::int64_t c, std::int64_t y, std::int64_t x) const;
  void set_bit(std::int64_t c, std::int64_t y, std::int64_t x, int value);

  /// Total payload bits actually used (channels * height * width).
  std::int64_t payload_bits() const { return shape_.size(); }

  /// Whole word storage including the ring, pixel-major over the
  /// padded plane: logical pixel (y, x) owns words
  /// [((y+p)*(width+2p) + x+p) * words_per_pixel, ...). Writers must
  /// preserve the layout invariant (tail lanes and the ring stay zero);
  /// pack_feature_into is the intended bulk writer.
  std::span<const std::uint64_t> words() const { return words_; }
  std::span<std::uint64_t> words() { return words_; }

 private:
  FeatureShape shape_;
  std::int64_t padding_ = 0;
  std::int64_t words_per_pixel_ = 0;
  std::uint64_t tail_mask_ = 0;
  std::vector<std::uint64_t> words_;
};

/// A binarized convolution kernel in channel-packed layout.
class PackedKernel {
 public:
  PackedKernel() = default;
  explicit PackedKernel(KernelShape shape);

  const KernelShape& shape() const { return shape_; }
  std::int64_t words_per_position() const { return words_per_position_; }
  std::uint64_t tail_mask() const { return tail_mask_; }

  /// Words for output channel o at kernel position (ky, kx).
  std::span<const std::uint64_t> at(std::int64_t o, std::int64_t ky,
                                    std::int64_t kx) const;
  std::span<std::uint64_t> at(std::int64_t o, std::int64_t ky,
                              std::int64_t kx);

  /// Get/set the bit for input channel i. 1 encodes +1.
  int bit(std::int64_t o, std::int64_t i, std::int64_t ky,
          std::int64_t kx) const;
  void set_bit(std::int64_t o, std::int64_t i, std::int64_t ky,
               std::int64_t kx, int value);

  /// Uncompressed storage in bits: one bit per weight (the paper's
  /// baseline storage figure for binary convs).
  std::int64_t payload_bits() const { return shape_.size(); }

  bool operator==(const PackedKernel& other) const = default;

 private:
  KernelShape shape_;
  std::int64_t words_per_position_ = 0;
  std::uint64_t tail_mask_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Binarize (Eq. 1: bit = v >= 0) and channel-pack a float feature map
/// inside a zero ring `padding` pixels wide. Reference implementation:
/// one checked set_bit per element, obviously correct, used as the
/// bit-identity oracle for pack_feature_into.
PackedFeature pack_feature(const Tensor& input, std::int64_t padding = 0);

/// Fast pack into caller-provided storage: reshapes `out` to the input
/// shape and ring (no allocation once storage is reserved) and ORs
/// whole channel rows into the packed words with one branch-free pass
/// per channel. The rows split over current_num_threads(). Bit-for-bit
/// identical to pack_feature; the arena-backed forward path packs
/// through here using the Workspace pack scratch.
void pack_feature_into(ConstTensorView input, PackedFeature& out,
                       std::int64_t padding = 0);

/// Expand a packed feature back to a +/-1-valued float tensor.
Tensor unpack_feature(const PackedFeature& packed);

/// Binarize and channel-pack float weights (OIHW).
PackedKernel pack_kernel(const WeightTensor& weights);

/// Expand a packed kernel back to +/-1-valued float weights.
WeightTensor unpack_kernel(const PackedKernel& packed);

}  // namespace bkc::bnn
