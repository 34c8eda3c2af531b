#pragma once
// Table-driven multi-symbol decode for grouped-Huffman streams.
//
// The bit-serial reference (GroupedHuffmanCodec::decode_one) walks the
// node prefix one bit at a time - fine for a hardware stream parser
// shifting a register (Fig. 6), slow on a CPU. MultiDecoder instead
// peeks a fixed 12-bit window and resolves it through a 4096-entry
// table whose entries carry *every* complete codeword inside the
// window: up to 4 sequences plus the cumulative bit length after each,
// so one lookup emits several symbols and one skip advances the
// stream. 12 bits covers the paper's longest code exactly (node 3:
// prefix 111 + 9 index bits).
//
// Window values whose first codeword is longer than the window, lands
// on a corrupt index, or runs past the end of the stream get count 0
// and fall back to a per-symbol path that replicates decode_one bit
// for bit - including which CheckError fires first - so the decoder is
// contractually bit-identical to the reference on valid, truncated and
// corrupt streams alike. A single-node tree degenerates to a
// fixed-width code and skips the window table entirely.
//
// The decoder owns flattened copies of the node tables (never
// back-references into the codec) so GroupedHuffmanCodec stays freely
// copyable and movable; BlockCodec::compress_block moves codecs into
// KernelCompression by value.

#include <cstdint>
#include <span>
#include <vector>

#include "compress/frequency.h"
#include "util/bitstream.h"

namespace bkc::compress {

/// Multi-symbol decoder for one codec's tree + tables. Value-semantic;
/// build once per codec (cheap: ~4096 short simulations).
class MultiDecoder {
 public:
  /// Window width in bits. Chosen to exactly cover the longest codeword
  /// of the paper's config; longer codes still decode via the fallback.
  static constexpr unsigned kWindowBits = 12;
  /// Cap on symbols resolved per lookup. Bounds the entry size and
  /// terminates the build for degenerate sub-1-bit codes (a one-node
  /// tree with zero index bits has zero-length codewords).
  static constexpr int kMaxSymbolsPerEntry = 4;

  MultiDecoder() = default;

  /// Build from the tree shape (one index width per node; prefix
  /// semantics follow GroupedTreeConfig) and the node decode tables.
  /// The tables are flattened and copied.
  MultiDecoder(std::vector<int> index_bits,
               const std::vector<std::vector<SeqId>>& tables);

  /// Decode `count` sequences. Bit-identical to calling
  /// GroupedHuffmanCodec::decode_one `count` times: same outputs on
  /// valid streams, same CheckError on truncated or corrupt ones.
  std::vector<SeqId> decode(std::span<const std::uint8_t> stream,
                            std::size_t bit_count, std::size_t count) const;

  int num_nodes() const { return static_cast<int>(index_bits_.size()); }

 private:
  struct Entry {
    SeqId seq[kMaxSymbolsPerEntry];
    std::uint8_t bits_after[kMaxSymbolsPerEntry];  // cumulative, per symbol
    std::uint8_t count = 0;
  };

  template <int kNumNodes>
  void build_window();
  template <int kNumNodes>
  void decode_windowed(BitReader& reader, std::size_t count,
                       std::vector<SeqId>& out) const;
  template <int kNumNodes>
  SeqId decode_one_slow(BitReader& reader) const;
  void decode_fixed_width(BitReader& reader, std::size_t count,
                          std::vector<SeqId>& out) const;

  std::vector<int> index_bits_;
  std::vector<std::uint32_t> table_offset_;  // node -> offset into flat_
  std::vector<std::uint32_t> table_size_;    // node -> occupied entries
  std::vector<SeqId> flat_;                  // all node tables, concatenated
  std::vector<Entry> window_;                // 2^kWindowBits entries
};

}  // namespace bkc::compress
