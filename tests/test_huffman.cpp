// Tests for the full Huffman code lengths (the optimality bound the
// simplified tree is compared against).

#include "compress/huffman.h"

#include <gtest/gtest.h>

#include "support/support.h"

#include <cmath>

#include "bnn/weights.h"
#include "util/check.h"
#include "util/rng.h"

namespace bkc::compress {
namespace {

FrequencyTable table_from_counts(
    std::initializer_list<std::pair<SeqId, std::uint64_t>> counts) {
  FrequencyTable t;
  for (const auto& [s, c] : counts) t.add(s, c);
  return t;
}

TEST(Huffman, TwoSymbolAlphabet) {
  const auto t = table_from_counts({{0, 3}, {511, 1}});
  const auto codec = HuffmanCodec::build(t);
  EXPECT_EQ(codec.code_length(0), 1u);
  EXPECT_EQ(codec.code_length(511), 1u);
  EXPECT_FALSE(codec.has_code(5));
  EXPECT_THROW(codec.code_length(5), CheckError);
}

TEST(Huffman, SingleSymbolGetsOneBit) {
  const auto t = table_from_counts({{7, 100}});
  const auto codec = HuffmanCodec::build(t);
  EXPECT_EQ(codec.code_length(7), 1u);
  EXPECT_EQ(codec.encoded_bits(t), 100u);
}

TEST(Huffman, SkewedFrequenciesGetShorterCodes) {
  const auto t = table_from_counts({{1, 100}, {2, 10}, {3, 10}, {4, 1}});
  const auto codec = HuffmanCodec::build(t);
  EXPECT_LE(codec.code_length(1), codec.code_length(2));
  EXPECT_LE(codec.code_length(2), codec.code_length(4));
}

TEST(Huffman, KraftEqualityHolds) {
  // An optimal prefix code over n>=2 symbols satisfies Kraft with
  // equality: sum 2^-len == 1.
  Rng rng(5);
  FrequencyTable t;
  for (int s = 0; s < 300; ++s) {
    t.add(static_cast<SeqId>(s), 1 + rng.below(1000));
  }
  const auto codec = HuffmanCodec::build(t);
  double kraft = 0.0;
  for (int s = 0; s < 300; ++s) {
    kraft += std::pow(2.0, -static_cast<double>(
                               codec.code_length(static_cast<SeqId>(s))));
  }
  EXPECT_NEAR(kraft, 1.0, 1e-9);
}

TEST(Huffman, WithinOneBitOfEntropy) {
  const auto kernel = test::calibrated_kernel(128, 128, 17);
  const auto t = FrequencyTable::from_kernel(kernel);
  const auto codec = HuffmanCodec::build(t);
  const double avg_bits =
      static_cast<double>(codec.encoded_bits(t)) /
      static_cast<double>(t.total());
  EXPECT_GE(avg_bits, t.entropy_bits() - 1e-9);
  EXPECT_LE(avg_bits, t.entropy_bits() + 1.0);
}

TEST(Huffman, CompressionRatioDefinition) {
  const auto t = table_from_counts({{0, 1}, {1, 1}});
  const auto codec = HuffmanCodec::build(t);
  // 2 sequences * 9 bits plain, 2 * 1 bit coded.
  EXPECT_DOUBLE_EQ(codec.compression_ratio(t), 9.0);
}

TEST(Huffman, EmptyTableThrows) {
  FrequencyTable t;
  EXPECT_THROW(HuffmanCodec::build(t), CheckError);
}

TEST(Huffman, DeterministicBuild) {
  const auto t = table_from_counts({{9, 4}, {10, 4}, {11, 4}, {12, 4}});
  const auto a = HuffmanCodec::build(t);
  const auto b = HuffmanCodec::build(t);
  for (int s = 0; s < bnn::kNumSequences; ++s) {
    const auto id = static_cast<SeqId>(s);
    ASSERT_EQ(a.has_code(id), b.has_code(id));
    if (a.has_code(id)) {
      EXPECT_EQ(a.code_length(id), b.code_length(id));
    }
  }
}

}  // namespace
}  // namespace bkc::compress
