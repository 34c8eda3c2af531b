#pragma once
// Full Huffman coding over bit sequences: the optimal code lengths.
//
// The paper's simplified tree (grouped_huffman.h) trades compression
// rate for hardware simplicity. This codec is the non-simplified upper
// bound it is traded against: an optimal prefix code built from the same
// frequency table. The ablation bench (Sec VI "good trade-off between
// simplicity and compression rate") compares the two.

#include <array>
#include <cstdint>

#include "compress/frequency.h"

namespace bkc::compress {

/// Optimal (full Huffman) code lengths over the 512 bit-sequence
/// alphabet — the bound the report quotes next to the grouped tree.
/// Only sequences with a non-zero count receive a codeword. No stream
/// is ever emitted with this code, so only the lengths are kept.
class HuffmanCodec {
 public:
  /// Build the optimal prefix code for `table`.
  /// Precondition: table.total() > 0.
  static HuffmanCodec build(const FrequencyTable& table);

  /// True if `s` has a codeword.
  bool has_code(SeqId s) const { return lengths_[s] != 0; }

  /// Codeword length in bits. Precondition: has_code(s).
  unsigned code_length(SeqId s) const;

  /// Total encoded size of all occurrences in `table`.
  std::uint64_t encoded_bits(const FrequencyTable& table) const;

  /// 9*total / encoded_bits: the paper's compression-ratio metric.
  double compression_ratio(const FrequencyTable& table) const;

 private:
  HuffmanCodec() = default;

  std::array<std::uint8_t, bnn::kNumSequences> lengths_{};
};

}  // namespace bkc::compress
