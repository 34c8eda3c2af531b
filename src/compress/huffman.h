#pragma once
// Full canonical Huffman coding over bit sequences.
//
// The paper's simplified tree (grouped_huffman.h) trades compression
// rate for hardware simplicity. This codec is the non-simplified upper
// bound it is traded against: an optimal prefix code built from the same
// frequency table. The ablation bench (Sec VI "good trade-off between
// simplicity and compression rate") compares the two.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "compress/frequency.h"
#include "util/bitstream.h"

namespace bkc::compress {

/// Canonical Huffman codec over the 512 bit-sequence alphabet. Only
/// sequences with a non-zero count receive a codeword; encoding a
/// sequence that had count zero is a caller error.
class HuffmanCodec {
 public:
  /// Build the optimal prefix code for `table`.
  /// Precondition: table.total() > 0.
  static HuffmanCodec build(const FrequencyTable& table);

  /// True if `s` has a codeword.
  bool has_code(SeqId s) const { return lengths_[s] != 0; }

  /// Codeword length in bits. Precondition: has_code(s).
  unsigned code_length(SeqId s) const;

  void encode_one(BitWriter& writer, SeqId s) const;
  SeqId decode_one(BitReader& reader) const;

  /// Encode a sequence list into a byte stream; returns the bit count
  /// through `bit_count`.
  std::vector<std::uint8_t> encode(std::span<const SeqId> sequences,
                                   std::size_t& bit_count) const;

  /// Decode exactly `count` sequences.
  std::vector<SeqId> decode(std::span<const std::uint8_t> stream,
                            std::size_t bit_count, std::size_t count) const;

  /// Total encoded size of all occurrences in `table`.
  std::uint64_t encoded_bits(const FrequencyTable& table) const;

  /// 9*total / encoded_bits: the paper's compression-ratio metric.
  double compression_ratio(const FrequencyTable& table) const;

 private:
  HuffmanCodec() = default;

  std::array<std::uint8_t, bnn::kNumSequences> lengths_{};
  std::array<std::uint32_t, bnn::kNumSequences> codes_{};
  unsigned max_length_ = 0;
  // Canonical decoding tables indexed by code length:
  // first_code_[l] is the smallest code of length l, and symbols of
  // length l are contiguous in symbols_ starting at symbol_offset_[l].
  std::array<std::uint32_t, 64> first_code_{};
  std::array<std::uint32_t, 64> symbol_offset_{};
  std::array<std::uint32_t, 64> count_per_length_{};
  std::vector<SeqId> symbols_;
};

}  // namespace bkc::compress
