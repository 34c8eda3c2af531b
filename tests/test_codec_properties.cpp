// Property-style randomized round-trip tests for the grouped-Huffman
// codec and the whole-kernel stream format: for any kernel whose
// alphabet fits the tree capacity, decode(encode(kernel)) must
// reproduce every bit, across tree shapes and degenerate inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "bnn/kernel_sequences.h"
#include "compress/block_codec.h"
#include "compress/grouped_huffman.h"
#include "compress/kernel_codec.h"
#include "support/configs.h"
#include "support/kernels.h"
#include "util/rng.h"

namespace bkc::compress {
namespace {

// Tree shapes under test, shared with the grouped-Huffman suite
// (tests/support/configs.h).
std::vector<GroupedTreeConfig> test_configs() {
  return test::codec_tree_configs();
}

// A random kernel whose distinct sequences are drawn from an alphabet
// that fits `capacity` (the codec's documented precondition).
bnn::PackedKernel random_kernel(Rng& rng, std::uint64_t capacity) {
  const auto max_alphabet =
      std::min<std::uint64_t>(capacity, bnn::kNumSequences);
  const std::size_t alphabet_size =
      static_cast<std::size_t>(1 + rng.below(max_alphabet));
  const auto ids = rng.permutation(bnn::kNumSequences);
  const std::int64_t out_channels = rng.range(1, 8);
  const std::int64_t in_channels = rng.range(1, 12);
  std::vector<SeqId> sequences;
  sequences.reserve(static_cast<std::size_t>(out_channels * in_channels));
  for (std::int64_t c = 0; c < out_channels * in_channels; ++c) {
    sequences.push_back(
        static_cast<SeqId>(ids[rng.below(alphabet_size)]));
  }
  return bnn::kernel_from_sequences(out_channels, in_channels, sequences);
}

/// The encoding column of one compress_block pass under `config`.
KernelCompression encode_with(const bnn::PackedKernel& kernel,
                              const GroupedTreeConfig& config) {
  return BlockCodec(config).compress_block("k", kernel).encoding;
}

void expect_round_trip(const bnn::PackedKernel& kernel,
                       const GroupedTreeConfig& config) {
  const auto table = FrequencyTable::from_kernel(kernel);
  const GroupedHuffmanCodec codec(table, config);
  const KernelCompression encoded = encode_with(kernel, config);
  EXPECT_EQ(encoded.compressed.stream_bits, codec.encoded_bits(table));
  EXPECT_TRUE(decode_block(encoded) == kernel);
}

TEST(CodecProperties, RandomKernelsRoundTripAcrossConfigs) {
  for (const GroupedTreeConfig& config : test_configs()) {
    for (std::uint64_t seed = 0; seed < 50; ++seed) {
      Rng rng(0xC0DEC000 + seed);
      const auto kernel = random_kernel(rng, config.total_capacity());
      SCOPED_TRACE("seed " + std::to_string(seed) + ", nodes " +
                   std::to_string(config.num_nodes()));
      expect_round_trip(kernel, config);
    }
  }
}

TEST(CodecProperties, RandomSequenceListsRoundTripThroughRawCodec) {
  // The stream layer below kernels: encode()/decode() on raw id lists.
  for (const GroupedTreeConfig& config : test_configs()) {
    for (std::uint64_t seed = 0; seed < 50; ++seed) {
      Rng rng(0x5EC5EC00 + seed);
      const auto alphabet_cap =
          std::min<std::uint64_t>(config.total_capacity(),
                                  bnn::kNumSequences);
      const auto ids = rng.permutation(bnn::kNumSequences);
      const std::size_t alphabet =
          static_cast<std::size_t>(1 + rng.below(alphabet_cap));
      const std::int64_t length = rng.range(1, 200);
      std::vector<SeqId> sequences;
      for (std::int64_t i = 0; i < length; ++i) {
        sequences.push_back(static_cast<SeqId>(ids[rng.below(alphabet)]));
      }
      const auto table = FrequencyTable::from_sequences(sequences);
      const GroupedHuffmanCodec codec(table, config);
      std::size_t bit_count = 0;
      const auto stream = codec.encode(sequences, bit_count);
      const auto decoded = codec.decode(stream, bit_count, sequences.size());
      EXPECT_EQ(decoded, sequences);
    }
  }
}

TEST(CodecProperties, SingleDistinctSequenceKernel) {
  // Degenerate alphabet of one: every channel carries the same
  // sequence, so the stream is num_sequences copies of one codeword.
  for (const GroupedTreeConfig& config : test_configs()) {
    for (SeqId seq : {SeqId{0}, SeqId{257}, SeqId{511}}) {
      const std::vector<SeqId> sequences(24, seq);
      expect_round_trip(bnn::kernel_from_sequences(4, 6, sequences), config);
    }
  }
}

TEST(CodecProperties, AllDistinctSequencesKernel) {
  // The opposite degenerate case: all 512 sequences occur exactly once,
  // filling every node of any config with capacity >= 512.
  std::vector<SeqId> sequences(bnn::kNumSequences);
  for (int s = 0; s < bnn::kNumSequences; ++s) {
    sequences[static_cast<std::size_t>(s)] = static_cast<SeqId>(s);
  }
  // Shuffle so channel order does not correlate with frequency rank.
  Rng rng(99);
  const auto perm = rng.permutation(sequences.size());
  std::vector<SeqId> shuffled;
  shuffled.reserve(sequences.size());
  for (std::uint32_t p : perm) shuffled.push_back(sequences[p]);

  for (const GroupedTreeConfig& config :
       {GroupedTreeConfig::paper(), GroupedTreeConfig::fixed9()}) {
    expect_round_trip(bnn::kernel_from_sequences(32, 16, shuffled), config);
  }
}

TEST(CodecProperties, OneChannelBlock) {
  // A 1x1-channel block holds a single 9-bit sequence; the compressed
  // stream is exactly one codeword.
  for (const GroupedTreeConfig& config : test_configs()) {
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
      Rng rng(0x0B10C000 + seed);
      const std::vector<SeqId> sequences{
          static_cast<SeqId>(rng.below(bnn::kNumSequences))};
      const auto kernel = bnn::kernel_from_sequences(1, 1, sequences);
      const auto table = FrequencyTable::from_kernel(kernel);
      const GroupedHuffmanCodec codec(table, config);
      const KernelCompression encoded = encode_with(kernel, config);
      EXPECT_EQ(encoded.compressed.stream_bits,
                codec.code_length(sequences[0]));
      EXPECT_TRUE(decode_block(encoded) == kernel);
    }
  }
}

TEST(CodecProperties, FullPipelineRoundTripsRandomKernels) {
  // End-to-end property on the paper config: the encoding column is
  // lossless for arbitrary kernels; the clustered column's stream
  // reproduces the clustered kernel bit-exactly.
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(0xF1FE1100 + seed);
    const auto kernel =
        random_kernel(rng, GroupedTreeConfig::paper().total_capacity());
    const CompressedBlock block = test::encode_block(kernel);
    EXPECT_TRUE(decode_block(block.encoding) == kernel);
    EXPECT_TRUE(decode_block(block.clustered) == block.clustered_kernel);
  }
}

}  // namespace
}  // namespace bkc::compress
