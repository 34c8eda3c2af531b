// Tests for the paper's simplified 4-node Huffman tree (Sec III-B), its
// stream parser (decode / decode_one) and the prefix-only
// scan_code_lengths walker, on valid, truncated and corrupt streams.

#include "compress/grouped_huffman.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <exception>
#include <optional>
#include <string>

#include "support/support.h"

#include "bnn/weights.h"
#include "compress/huffman.h"
#include "util/check.h"
#include "util/rng.h"

namespace bkc::compress {
namespace {

TEST(GroupedTreeConfig, PaperCodeLengthsAre6_8_9_12) {
  const auto cfg = GroupedTreeConfig::paper();
  ASSERT_EQ(cfg.num_nodes(), 4);
  EXPECT_EQ(cfg.code_length(0), 6);
  EXPECT_EQ(cfg.code_length(1), 8);
  EXPECT_EQ(cfg.code_length(2), 9);
  EXPECT_EQ(cfg.code_length(3), 12);
  EXPECT_EQ(cfg.capacity(0), 32u);
  EXPECT_EQ(cfg.capacity(1), 64u);
  EXPECT_EQ(cfg.capacity(2), 64u);
  EXPECT_EQ(cfg.capacity(3), 512u);
  EXPECT_GE(cfg.total_capacity(), 512u);  // every sequence encodable
}

TEST(GroupedTreeConfig, Fixed9IsUncompressed) {
  const auto cfg = GroupedTreeConfig::fixed9();
  ASSERT_EQ(cfg.num_nodes(), 1);
  EXPECT_EQ(cfg.prefix_length(0), 0);
  EXPECT_EQ(cfg.code_length(0), 9);
  EXPECT_EQ(cfg.capacity(0), 512u);
}

TEST(GroupedTreeConfig, ValidationGuards) {
  GroupedTreeConfig empty{.index_bits = {}};
  EXPECT_THROW(empty.validate(), bkc::CheckError);
  GroupedTreeConfig wide{.index_bits = {20}};
  EXPECT_THROW(wide.validate(), bkc::CheckError);
}

FrequencyTable skewed_table() {
  // Ranked by construction: sequence s has count 2000 - 3s.
  FrequencyTable t;
  for (int s = 0; s < 512; ++s) {
    t.add(static_cast<SeqId>(s), static_cast<std::uint64_t>(2000 - 3 * s));
  }
  return t;
}

TEST(GroupedHuffman, FillsNodesInRankOrder) {
  const auto t = skewed_table();
  const GroupedHuffmanCodec codec(t);
  // Sequence 0 is the most frequent -> node 0, index 0; sequence 32 is
  // rank 32 -> node 1.
  EXPECT_EQ(codec.node_of(0), 0);
  EXPECT_EQ(codec.index_of(0), 0u);
  EXPECT_EQ(codec.node_of(31), 0);
  EXPECT_EQ(codec.node_of(32), 1);
  EXPECT_EQ(codec.node_of(96), 2);
  EXPECT_EQ(codec.node_of(160), 3);
  EXPECT_EQ(codec.code_length(0), 6u);
  EXPECT_EQ(codec.code_length(200), 12u);
  EXPECT_EQ(codec.node_occupancy(0), 32u);
  EXPECT_EQ(codec.node_occupancy(3), 512u - 160u);
}

TEST(GroupedHuffman, PrefixCodeIsSelfDelimiting) {
  const auto t = skewed_table();
  const GroupedHuffmanCodec codec(t);
  Rng rng(7);
  std::vector<SeqId> message;
  for (int i = 0; i < 5000; ++i) {
    message.push_back(static_cast<SeqId>(rng.below(512)));
  }
  std::size_t bits = 0;
  const auto stream = codec.encode(message, bits);
  EXPECT_EQ(codec.decode(stream, bits, message.size()), message);
}

TEST(GroupedHuffman, EncodedBitsMatchesPerSymbolLengths) {
  const auto t = skewed_table();
  const GroupedHuffmanCodec codec(t);
  std::uint64_t expected = 0;
  for (int s = 0; s < 512; ++s) {
    expected += t.count(static_cast<SeqId>(s)) *
                codec.code_length(static_cast<SeqId>(s));
  }
  EXPECT_EQ(codec.encoded_bits(t), expected);
}

TEST(GroupedHuffman, NodeSharesSumToOne) {
  const auto t = skewed_table();
  const GroupedHuffmanCodec codec(t);
  double total = 0.0;
  for (int n = 0; n < 4; ++n) total += codec.node_share(n, t);
  EXPECT_NEAR(total, 1.0, 1e-12);
  // Rank-ordered fill: node 0 has the highest per-sequence intensity.
  EXPECT_GT(codec.node_share(0, t) / 32.0,
            codec.node_share(3, t) /
                static_cast<double>(codec.node_occupancy(3)));
}

TEST(GroupedHuffman, CompressionBeatsFixed9OnSkewedData) {
  const auto kernel = test::calibrated_kernel(128, 128, 3);
  const auto t = FrequencyTable::from_kernel(kernel);
  const GroupedHuffmanCodec paper(t, GroupedTreeConfig::paper());
  const GroupedHuffmanCodec fixed(t, GroupedTreeConfig::fixed9());
  EXPECT_GT(paper.compression_ratio(t), 1.1);
  EXPECT_DOUBLE_EQ(fixed.compression_ratio(t), 1.0);
}

TEST(GroupedHuffman, WorseThanFullHuffmanButClose) {
  // The simplified tree trades compression for hardware simplicity
  // (Sec III-B): it must be within ~15% of the optimal prefix code.
  const auto kernel = test::calibrated_kernel(128, 128, 5, {0.62, 0.9});
  const auto t = FrequencyTable::from_kernel(kernel);
  const GroupedHuffmanCodec grouped(t);
  const auto full = HuffmanCodec::build(t);
  EXPECT_LE(grouped.compression_ratio(t), full.compression_ratio(t) + 1e-9);
  EXPECT_GT(grouped.compression_ratio(t),
            full.compression_ratio(t) * 0.85);
}

TEST(GroupedHuffman, UniformDataBarelyCompresses) {
  FrequencyTable t;
  for (int s = 0; s < 512; ++s) t.add(static_cast<SeqId>(s), 10);
  const GroupedHuffmanCodec codec(t);
  // Avg bits = (32*6 + 64*8 + 64*9 + 352*12) / 512 = 10.53: uniform
  // data *expands* under the paper's tree, as expected.
  EXPECT_LT(codec.compression_ratio(t), 1.0);
}

TEST(GroupedHuffman, CapacityTooSmallForAlphabetThrows) {
  FrequencyTable t;
  for (int s = 0; s < 512; ++s) t.add(static_cast<SeqId>(s), 10);
  GroupedTreeConfig small{.index_bits = {5, 6}};  // capacity 96 < 512
  EXPECT_THROW(GroupedHuffmanCodec(t, small), bkc::CheckError);
}

TEST(GroupedHuffman, SmallAlphabetFitsSmallTree) {
  FrequencyTable t;
  for (int s = 0; s < 90; ++s) t.add(static_cast<SeqId>(s), 5);
  GroupedTreeConfig small{.index_bits = {5, 6}};
  const GroupedHuffmanCodec codec(t, small);
  std::vector<SeqId> msg{0, 40, 89};
  std::size_t bits = 0;
  const auto stream = codec.encode(msg, bits);
  EXPECT_EQ(codec.decode(stream, bits, msg.size()), msg);
  // Sequences that never occurred and did not fit got no code.
  EXPECT_FALSE(codec.has_code(500));
}

TEST(GroupedHuffman, TableBitsAccounting) {
  const auto t = skewed_table();
  const GroupedHuffmanCodec codec(t);
  // 512 occupied entries * 9 bits + 4 length-table entries * 4 bits.
  EXPECT_EQ(codec.table_bits(), 512u * 9u + 4u * 4u);
}

TEST(GroupedHuffman, DecodeCorruptIndexThrows) {
  FrequencyTable t;
  t.add(3, 10);
  const GroupedHuffmanCodec codec(t);
  // Zero-count sequences backfill the tree, so nodes 0-2 are full and
  // node 3 holds 512 - 160 = 352 entries; index 400 is unoccupied.
  EXPECT_EQ(codec.node_occupancy(3), 352u);
  bkc::BitWriter writer;
  writer.write_bits(0b111, 3);  // prefix '111' -> node 3
  writer.write_bits(400, 9);    // beyond occupancy
  const auto bytes = writer.bytes();
  bkc::BitReader reader(bytes, 12);
  EXPECT_THROW(codec.decode_one(reader), bkc::CheckError);
}

// `length` sequences over a random alphabet that fits `capacity`.
std::vector<SeqId> random_sequences(Rng& rng, std::uint64_t capacity,
                                    std::size_t length) {
  const auto alphabet_cap =
      std::min<std::uint64_t>(capacity, bnn::kNumSequences);
  const auto ids = rng.permutation(bnn::kNumSequences);
  const std::size_t alphabet =
      static_cast<std::size_t>(1 + rng.below(alphabet_cap));
  std::vector<SeqId> sequences;
  sequences.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    sequences.push_back(static_cast<SeqId>(ids[rng.below(alphabet)]));
  }
  return sequences;
}

// Encodes `sequences`, then decodes them back both through decode and
// one decode_one at a time, the latter ending exactly on the last bit.
void expect_roundtrip(const GroupedHuffmanCodec& codec,
                      const std::vector<SeqId>& sequences,
                      const std::string& label) {
  std::size_t bit_count = 0;
  const auto stream = codec.encode(sequences, bit_count);
  EXPECT_EQ(codec.decode(stream, bit_count, sequences.size()), sequences)
      << label;
  BitReader reader(stream, bit_count);
  for (const SeqId s : sequences) {
    EXPECT_EQ(codec.decode_one(reader), s) << label;
  }
  EXPECT_EQ(reader.remaining(), 0u) << label;
}

TEST(GroupedHuffmanDecode, DegenerateTablesRoundTrip) {
  // One distinct symbol repeated (the shortest configs emit 1-bit
  // codewords; {0, 0, 4} gives it a prefix and no index bits), on every
  // tree shape including the one-node fixed-width fixed9.
  const std::vector<SeqId> repeated(300, SeqId{257});
  for (const GroupedTreeConfig& config : test::codec_tree_configs()) {
    expect_roundtrip(
        GroupedHuffmanCodec(FrequencyTable::from_sequences(repeated), config),
        repeated, "repeated, nodes " + std::to_string(config.num_nodes()));
  }
  // The full 512-distinct alphabet: every node of the paper tree
  // occupied, and the fixed-width tree filled to capacity.
  std::vector<SeqId> distinct(bnn::kNumSequences);
  for (int s = 0; s < bnn::kNumSequences; ++s) {
    distinct[static_cast<std::size_t>(s)] = static_cast<SeqId>(s);
  }
  for (const GroupedTreeConfig& config :
       {GroupedTreeConfig::paper(), GroupedTreeConfig::fixed9()}) {
    expect_roundtrip(
        GroupedHuffmanCodec(FrequencyTable::from_sequences(distinct), config),
        distinct, "distinct, nodes " + std::to_string(config.num_nodes()));
  }
  // A one-node tree with zero index bits: every codeword is empty, so
  // any count decodes from a zero-bit stream.
  const GroupedHuffmanCodec empty_code(GroupedTreeConfig{{0}}, {{SeqId{9}}});
  EXPECT_EQ(empty_code.decode({}, 0, 4), std::vector<SeqId>(4, SeqId{9}));
  EXPECT_EQ(scan_code_lengths({}, 0, 4, empty_code.config()),
            std::vector<std::uint8_t>(4, 0));
}

TEST(GroupedHuffmanDecode, EveryTruncationRaisesCheckError) {
  for (const GroupedTreeConfig& config : test::codec_tree_configs()) {
    Rng rng(0x7274C000 + static_cast<std::uint64_t>(config.num_nodes()));
    const auto sequences = random_sequences(rng, config.total_capacity(), 60);
    const GroupedHuffmanCodec codec(FrequencyTable::from_sequences(sequences),
                                    config);
    std::size_t bit_count = 0;
    const auto stream = codec.encode(sequences, bit_count);
    // The parse is deterministic and needs all `bit_count` bits, so any
    // shorter stream ends mid-codeword before the last sequence.
    for (std::size_t bits = 0; bits < bit_count; ++bits) {
      const std::span<const std::uint8_t> view(stream.data(),
                                               (bits + 7) / 8);
      EXPECT_THROW(codec.decode(view, bits, sequences.size()), CheckError)
          << "nodes " << config.num_nodes() << ", " << bits << " bits";
      EXPECT_THROW(
          scan_code_lengths(view, bits, sequences.size(), config),
          CheckError)
          << "nodes " << config.num_nodes() << ", " << bits << " bits";
    }
  }
}

// The CheckError message of `decode`, without check()'s "<file>:<line>: "
// prefix; nullopt when it returns.
template <typename Decode>
std::optional<std::string> check_message(const Decode& decode) {
  try {
    decode();
  } catch (const CheckError& e) {
    const std::string what = e.what();
    return what.substr(what.find(": ") + 2);
  }
  return std::nullopt;
}

TEST(GroupedHuffmanDecode, CraftedCorruptIndexRaisesTheCorruptStreamError) {
  // Node 0 of the paper tree holds 3 of its 32 slots, so index 30 is
  // corrupt.
  const GroupedHuffmanCodec sparse(GroupedTreeConfig::paper(),
                                   {{SeqId{1}, SeqId{2}, SeqId{3}}, {}, {},
                                    {}});
  BitWriter writer;
  writer.write_bits(0, 1);   // node 0 prefix
  writer.write_bits(30, 5);  // index beyond the 3 occupied slots
  const auto stream = writer.take();
  EXPECT_EQ(check_message([&] { return sparse.decode(stream, 6, 1); }),
            "GroupedHuffmanCodec: corrupt stream (index beyond table)");

  // The same check on a one-node (fixed-width) tree: occupancy 2, index
  // 5 is beyond the table.
  const GroupedHuffmanCodec fixed(GroupedTreeConfig{{3}},
                                  {{SeqId{7}, SeqId{8}}});
  BitWriter fixed_writer;
  fixed_writer.write_bits(5, 3);
  const auto fixed_stream = fixed_writer.take();
  EXPECT_EQ(check_message([&] { return fixed.decode(fixed_stream, 3, 1); }),
            "GroupedHuffmanCodec: corrupt stream (index beyond table)");
}

TEST(GroupedHuffmanDecode, DecodeAgreesWithScanOnEveryFlippedBit) {
  // The two walkers of the prefix code cross-check each other: whenever
  // both accept a mutated stream, every decoded sequence's code length
  // is the length scan_code_lengths read from its prefix. A flip may
  // re-decode to other valid symbols, hit an unoccupied table slot or
  // shift the codeword boundaries; either walker may reject the
  // stream, but only with a CheckError.
  std::size_t both_accepted = 0;
  std::size_t rejected = 0;
  for (const GroupedTreeConfig& config : test::codec_tree_configs()) {
    Rng rng(0xF11B000 + static_cast<std::uint64_t>(config.num_nodes()));
    // A small alphabet leaves most table slots unoccupied, making
    // corrupt-index outcomes likely alongside silent re-decodes.
    const auto alphabet_cap =
        std::min<std::uint64_t>(config.total_capacity(), 5);
    std::vector<SeqId> sequences;
    const auto ids = rng.permutation(bnn::kNumSequences);
    for (int i = 0; i < 80; ++i) {
      sequences.push_back(static_cast<SeqId>(ids[rng.below(alphabet_cap)]));
    }
    const GroupedHuffmanCodec codec(FrequencyTable::from_sequences(sequences),
                                    config);
    std::size_t bit_count = 0;
    auto stream = codec.encode(sequences, bit_count);
    for (std::size_t bit = 0; bit < bit_count; ++bit) {
      const std::string label = "flip bit " + std::to_string(bit) +
                                ", nodes " +
                                std::to_string(config.num_nodes());
      stream[bit / 8] ^= static_cast<std::uint8_t>(0x80u >> (bit % 8));
      std::optional<std::vector<SeqId>> decoded;
      std::optional<std::vector<std::uint8_t>> lengths;
      try {
        decoded = codec.decode(stream, bit_count, sequences.size());
      } catch (const CheckError&) {
      } catch (const std::exception& e) {
        ADD_FAILURE() << label << ": decode raised " << e.what();
      }
      try {
        lengths = scan_code_lengths(stream, bit_count, sequences.size(),
                                    config);
      } catch (const CheckError&) {
      } catch (const std::exception& e) {
        ADD_FAILURE() << label << ": scan raised " << e.what();
      }
      if (decoded && lengths) {
        ++both_accepted;
        ASSERT_EQ(decoded->size(), lengths->size()) << label;
        for (std::size_t i = 0; i < decoded->size(); ++i) {
          EXPECT_EQ(codec.code_length((*decoded)[i]), (*lengths)[i])
              << label << ", sequence " << i;
        }
      } else {
        ++rejected;
      }
      stream[bit / 8] ^= static_cast<std::uint8_t>(0x80u >> (bit % 8));
    }
  }
  // The grid exercises both outcomes, so neither branch is vacuous.
  EXPECT_GT(both_accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace bkc::compress
