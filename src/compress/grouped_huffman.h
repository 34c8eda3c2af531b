#pragma once
// The paper's simplified Huffman tree (Sec III-B, Fig. 4, Sec VI).
//
// Instead of a full Huffman tree, the alphabet is partitioned over a
// small number of *nodes*; every sequence assigned to node i shares the
// same codeword length. A codeword is a node prefix followed by a fixed
// width index into that node's table:
//
//     node 0: prefix 0    + 5 index bits  -> 6-bit codes,  32 entries
//     node 1: prefix 10   + 6 index bits  -> 8-bit codes,  64 entries
//     node 2: prefix 110  + 6 index bits  -> 9-bit codes,  64 entries
//     node 3: prefix 111  + 9 index bits  -> 12-bit codes, 512 entries
//
// which reproduces the paper's "6, 8, 9 and 12 bits" exactly. The most
// frequent sequences fill node 0 first, then node 1, and so on. During
// decode the prefix selects the node, the *length table* gives the index
// width, and the *uncompressed table* (a small banked scratchpad in the
// hardware unit, Fig. 6) maps the index back to the 9-bit sequence.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "compress/frequency.h"
#include "compress/multi_decode.h"
#include "util/bitstream.h"

namespace bkc::compress {

/// Shape of the simplified tree: one index width per node. Node i < n-1
/// has prefix `1^i 0` (i+1 bits); the last node has prefix `1^(n-1)`.
/// A single-node config degenerates to a fixed-width code.
struct GroupedTreeConfig {
  std::vector<int> index_bits{5, 6, 6, 9};

  int num_nodes() const { return static_cast<int>(index_bits.size()); }
  int prefix_length(int node) const;
  int code_length(int node) const;
  std::uint64_t capacity(int node) const;
  std::uint64_t total_capacity() const;

  /// Validate: 1..14 nodes, index widths in [0, 16].
  void validate() const;

  /// The paper's evaluated configuration ({5,6,6,9} index bits).
  static GroupedTreeConfig paper();
  /// Fixed 9-bit code (no compression) - the baseline storage format.
  static GroupedTreeConfig fixed9();
};

/// Codec over the simplified tree, built from a frequency table by
/// filling nodes in rank order.
class GroupedHuffmanCodec {
 public:
  /// An inert codec (paper tree shape, every table empty, no sequence
  /// has a codeword): the value a default-constructed KernelCompression
  /// carries until a codec is built or parsed into it. Does not bump
  /// the instrumentation build counter: nothing was built from data.
  GroupedHuffmanCodec();

  /// Build from counts. All sequences with non-zero count must fit in
  /// the total capacity (the paper's config has capacity 672 >= 512, so
  /// this always holds there); zero-count sequences are assigned
  /// codewords while capacity remains, for robust decode of any stream.
  GroupedHuffmanCodec(const FrequencyTable& table,
                      GroupedTreeConfig config = GroupedTreeConfig::paper());

  /// Rebuild a codec from its decode tables (one sequence list per
  /// node), the serialized form of compress/serialize.h and the exact
  /// payload a hardware decoder ships (Fig. 6 scratchpad banks). The
  /// codeword assignment (node_of/index_of) is derived from the table
  /// positions, so a restored codec encodes and decodes identically to
  /// the one that wrote the tables. CheckError when the table count
  /// does not match the config, a node overflows its capacity, an id is
  /// out of range, or a sequence appears twice. Does not bump the
  /// instrumentation build counter: restoring tables is I/O, not
  /// pipeline work.
  GroupedHuffmanCodec(GroupedTreeConfig config,
                      std::vector<std::vector<SeqId>> tables);

  const GroupedTreeConfig& config() const { return config_; }

  bool has_code(SeqId s) const;
  int node_of(SeqId s) const;
  unsigned index_of(SeqId s) const;
  unsigned code_length(SeqId s) const;

  void encode_one(BitWriter& writer, SeqId s) const;
  SeqId decode_one(BitReader& reader) const;

  std::vector<std::uint8_t> encode(std::span<const SeqId> sequences,
                                   std::size_t& bit_count) const;

  /// Decode `count` sequences. Dispatches to the table-driven
  /// multi-symbol path (compress/multi_decode.h) unless
  /// simd::scalar_forced() pins the bit-serial reference; both paths
  /// are bit-identical, including which CheckError a truncated or
  /// corrupt stream raises.
  std::vector<SeqId> decode(std::span<const std::uint8_t> stream,
                            std::size_t bit_count, std::size_t count) const;

  /// The bit-serial reference: decode_one per symbol. The bit-identity
  /// suites and benchmarks diff the fast path against this.
  std::vector<SeqId> decode_scalar(std::span<const std::uint8_t> stream,
                                   std::size_t bit_count,
                                   std::size_t count) const;

  /// The table-driven multi-symbol path, regardless of scalar_forced().
  std::vector<SeqId> decode_multi(std::span<const std::uint8_t> stream,
                                  std::size_t bit_count,
                                  std::size_t count) const;

  /// The node's uncompressed table (index -> sequence), i.e. the
  /// contents of the hardware scratchpad bank for that node.
  std::span<const SeqId> uncompressed_table(int node) const;

  /// Number of sequences actually assigned to `node`.
  std::size_t node_occupancy(int node) const;

  /// Fraction of occurrences in `table` that fall on `node` (the paper
  /// quotes 46% / 24% / 23% / 5% before clustering).
  double node_share(int node, const FrequencyTable& table) const;

  /// Total encoded size of all occurrences in `table`.
  std::uint64_t encoded_bits(const FrequencyTable& table) const;

  /// 9*total / encoded_bits - the paper's per-block compression ratio
  /// (Table V). Excludes decode-table storage, like the paper; use
  /// table_bits() to account for it separately.
  double compression_ratio(const FrequencyTable& table) const;

  /// Storage for the decode tables: 9 bits per occupied uncompressed-
  /// table entry plus 4 bits per length-table entry.
  std::uint64_t table_bits() const;

 private:
  GroupedTreeConfig config_;
  // Per sequence: node (or -1) and index within the node.
  std::array<std::int8_t, bnn::kNumSequences> node_{};
  std::array<std::uint16_t, bnn::kNumSequences> index_{};
  std::vector<std::vector<SeqId>> tables_;  // node -> index -> sequence
  MultiDecoder multi_;  // built eagerly by both ctors; value-semantic
};

/// Per-codeword bit lengths of an encoded stream in stream order,
/// recovered by reading each codeword's node prefix only (the index
/// bits are skipped): no decode-table lookups, no sequence
/// reconstruction. Identical to the lengths the encoder assigned, so a
/// parsed container can expose a code-length vector without decoding a
/// single kernel. CheckError when the stream ends mid-codeword or the
/// `count` codewords do not consume exactly `bit_count` bits.
std::vector<std::uint8_t> scan_code_lengths(
    std::span<const std::uint8_t> stream, std::size_t bit_count,
    std::size_t count, const GroupedTreeConfig& config);

}  // namespace bkc::compress
