// Tests for the Hamming-distance-1 clustering pass (Sec III-C).

#include "compress/clustering.h"

#include <gtest/gtest.h>

#include "support/support.h"

#include "bnn/kernel_sequences.h"
#include "bnn/weights.h"
#include "compress/block_codec.h"
#include "compress/grouped_huffman.h"
#include "util/check.h"

namespace bkc::compress {
namespace {

TEST(Clustering, ReplacesRareWithHammingOneCommon) {
  FrequencyTable t;
  t.add(0b000000000, 100);  // common
  t.add(0b000000001, 1);    // rare, distance 1 from common
  const auto result =
      cluster_sequences(t, {.most_common = 1, .least_common = 1});
  EXPECT_EQ(result.remap(0b000000001), 0b000000000);
  EXPECT_EQ(result.remap(0b000000000), 0b000000000);
  ASSERT_EQ(result.replacements().size(), 1u);
  EXPECT_EQ(result.replacements()[0].occurrences, 1u);
  EXPECT_EQ(result.replacements()[0].distance, 1);
}

TEST(Clustering, KeepsRareWithoutCloseNeighbor) {
  FrequencyTable t;
  t.add(0b000000000, 100);
  t.add(0b111111111, 1);  // distance 9 from the only common sequence
  const auto result =
      cluster_sequences(t, {.most_common = 1, .least_common = 1});
  EXPECT_EQ(result.remap(0b111111111), 0b111111111);
  EXPECT_TRUE(result.replacements().empty());
}

TEST(Clustering, PrefersHighestFrequencyCandidate) {
  // Both 0 and 3 are distance-1 from 1; 3 is more frequent... make 1
  // rare and candidates 0 (freq 50) and 5(101b, d=2). Use 0 vs 3:
  // hamming(1, 0) = 1, hamming(1, 3) = 1.
  FrequencyTable t;
  t.add(0, 50);
  t.add(3, 80);
  t.add(1, 1);
  const auto result =
      cluster_sequences(t, {.most_common = 2, .least_common = 1});
  EXPECT_EQ(result.remap(1), 3);  // the more frequent of the two
}

TEST(Clustering, MaxDistanceGeneralization) {
  FrequencyTable t;
  t.add(0b000000000, 100);
  t.add(0b000000011, 2);  // distance 2
  const ClusteringConfig d1{.most_common = 1, .least_common = 1,
                            .max_distance = 1};
  EXPECT_TRUE(cluster_sequences(t, d1).replacements().empty());
  const ClusteringConfig d2{.most_common = 1, .least_common = 1,
                            .max_distance = 2};
  const auto result = cluster_sequences(t, d2);
  ASSERT_EQ(result.replacements().size(), 1u);
  EXPECT_EQ(result.replacements()[0].distance, 2);
  EXPECT_EQ(result.flipped_weight_bits(), 4u);  // 2 occurrences * d2
}

TEST(Clustering, SetsNeverOverlap) {
  // 5 occurring sequences, M=4, N=4: su must only take the 1 leftover.
  FrequencyTable t;
  for (int s = 0; s < 5; ++s) {
    t.add(static_cast<SeqId>(s), static_cast<std::uint64_t>(100 - s));
  }
  const auto result =
      cluster_sequences(t, {.most_common = 4, .least_common = 4});
  // Only sequence 4 (the rarest) may be remapped.
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(result.remap(static_cast<SeqId>(s)), static_cast<SeqId>(s));
  }
}

TEST(Clustering, EmptyTableIsIdentity) {
  FrequencyTable t;
  const auto result = cluster_sequences(t, {});
  EXPECT_EQ(result.replaced_occurrences(), 0u);
  EXPECT_DOUBLE_EQ(result.flipped_bit_fraction(), 0.0);
}

TEST(Clustering, BadDistanceThrows) {
  FrequencyTable t;
  t.add(0, 1);
  EXPECT_THROW(cluster_sequences(t, {.max_distance = 0}), bkc::CheckError);
  EXPECT_THROW(cluster_sequences(t, {.max_distance = 10}), bkc::CheckError);
}

TEST(Clustering, ApplyToTableMovesCounts) {
  FrequencyTable t;
  t.add(0, 10);
  t.add(1, 2);
  const auto result =
      cluster_sequences(t, {.most_common = 1, .least_common = 1});
  const auto after = result.apply(t);
  EXPECT_EQ(after.count(0), 12u);
  EXPECT_EQ(after.count(1), 0u);
  EXPECT_EQ(after.total(), t.total());
  EXPECT_EQ(after.distinct(), 1u);
}

TEST(Clustering, ApplyToKernelRewritesChannels) {
  const std::vector<SeqId> seqs{0, 0, 0, 1};
  const auto kernel = bnn::kernel_from_sequences(2, 2, seqs);
  const auto t = FrequencyTable::from_kernel(kernel);
  const ClusteringConfig config{.most_common = 1, .least_common = 1};
  const auto result = cluster_sequences(t, config);
  EXPECT_EQ(result.apply(std::span<const SeqId>(seqs)),
            (std::vector<SeqId>{0, 0, 0, 0}));
  // The codec pass rewrites the kernel through the same remap.
  const CompressedBlock block =
      BlockCodec(GroupedTreeConfig::paper(), config).compress_block("b",
                                                                    kernel);
  EXPECT_EQ(bnn::extract_sequences(block.clustered_kernel),
            (std::vector<SeqId>{0, 0, 0, 0}));
  EXPECT_TRUE(decode_block(block.clustered) == block.clustered_kernel);
}

TEST(Clustering, FlippedBitFractionAccounting) {
  const std::vector<SeqId> seqs{0, 0, 0, 1};  // 4 sequences, 36 bits
  const auto kernel = bnn::kernel_from_sequences(2, 2, seqs);
  const auto t = FrequencyTable::from_kernel(kernel);
  const auto result =
      cluster_sequences(t, {.most_common = 1, .least_common = 1});
  EXPECT_EQ(result.replaced_occurrences(), 1u);
  EXPECT_EQ(result.flipped_weight_bits(), 1u);
  EXPECT_DOUBLE_EQ(result.flipped_bit_fraction(), 1.0 / 36.0);
}

TEST(Clustering, ImprovesCompressionOnCalibratedKernels) {
  // The headline mechanism of Table V: clustering must improve the
  // grouped-tree ratio on calibrated kernels.
  const auto kernel = test::calibrated_kernel(256, 256, 7, {0.632, 0.883});
  const auto t = FrequencyTable::from_kernel(kernel);
  const GroupedHuffmanCodec before(t);
  const auto clustering = cluster_sequences(t, {});
  const auto clustered = clustering.apply(t);
  const GroupedHuffmanCodec after(clustered);
  EXPECT_GT(after.compression_ratio(clustered),
            before.compression_ratio(t) + 0.03);
  // The perturbation is small: ~1-3% of weight bits.
  EXPECT_LT(clustering.flipped_bit_fraction(), 0.05);
  EXPECT_GT(clustering.flipped_bit_fraction(), 0.001);
}

TEST(Clustering, DefaultsReduceAlphabetBelowNodeCapacity) {
  // With the default M=64 / N=352 and the near-covering popularity head,
  // nearly every removed sequence finds a substitution, leaving an
  // alphabet that mostly fits the first three tree nodes.
  const auto kernel = test::calibrated_kernel(512, 512, 9, {0.632, 0.883});
  const auto t = FrequencyTable::from_kernel(kernel);
  const auto result = cluster_sequences(t, {});
  const auto after = result.apply(t);
  EXPECT_LT(after.distinct(), 250u);
  const GroupedHuffmanCodec codec(after);
  EXPECT_LT(codec.node_share(3, after), 0.08);
}

TEST(Clustering, RemapIdOutOfRangeThrows) {
  ClusteringResult identity;
  EXPECT_THROW(identity.remap(600), bkc::CheckError);
}

// ---- Edge cases: degenerate set sizes, single elements, ties ----

TEST(Clustering, ZeroSizedCommonSetKeepsEverything) {
  // M = 0: there is no common set to substitute into, so every rare
  // sequence stays, whatever N says.
  FrequencyTable t;
  t.add(0b000000000, 100);
  t.add(0b000000001, 1);
  const auto result =
      cluster_sequences(t, {.most_common = 0, .least_common = 2});
  EXPECT_TRUE(result.replacements().empty());
  EXPECT_EQ(result.remap(0b000000001), 0b000000001);
}

TEST(Clustering, ZeroSizedRareSetIsIdentity) {
  // N = 0: nothing is eligible for removal.
  FrequencyTable t;
  t.add(0b000000000, 100);
  t.add(0b000000001, 1);
  const auto result =
      cluster_sequences(t, {.most_common = 2, .least_common = 0});
  EXPECT_TRUE(result.replacements().empty());
}

TEST(Clustering, SingleDistinctSequenceIsIdentity) {
  // One occurring sequence lands in st; su is empty by the
  // no-overlap rule even with huge N.
  FrequencyTable t;
  t.add(42, 1000);
  const auto result =
      cluster_sequences(t, {.most_common = 64, .least_common = 352});
  EXPECT_TRUE(result.replacements().empty());
  EXPECT_EQ(result.remap(42), 42);
  EXPECT_EQ(result.total_occurrences(), 1000u);
}

TEST(Clustering, TiedCandidateFrequenciesPickLowestId) {
  // Sequences 0 (000000000) and 3 (000000011) are both distance 1 from
  // rare sequence 1 (000000001) and tie in frequency. The ranking is
  // deterministic (ties by ascending id), and "strictly greater count"
  // keeps the first-ranked candidate: sequence 0 wins, every run.
  FrequencyTable t;
  t.add(0, 50);
  t.add(3, 50);
  t.add(1, 1);
  const auto result =
      cluster_sequences(t, {.most_common = 2, .least_common = 1});
  ASSERT_EQ(result.replacements().size(), 1u);
  EXPECT_EQ(result.remap(1), 0);
}

TEST(Clustering, TiedRareSequencesAreAllEligible) {
  // Three rare sequences with identical counts: the rare set takes the
  // deterministic tail of the ranking, and each finds its distance-1
  // common target independently.
  FrequencyTable t;
  t.add(0b000000000, 100);
  t.add(0b000000001, 1);
  t.add(0b000000010, 1);
  t.add(0b000000100, 1);
  const auto result =
      cluster_sequences(t, {.most_common = 1, .least_common = 3});
  EXPECT_EQ(result.replacements().size(), 3u);
  EXPECT_EQ(result.remap(0b000000001), 0b000000000);
  EXPECT_EQ(result.remap(0b000000010), 0b000000000);
  EXPECT_EQ(result.remap(0b000000100), 0b000000000);
  EXPECT_EQ(result.replaced_occurrences(), 3u);
}

TEST(Clustering, ApplyOnEmptyTableYieldsEmptyTable) {
  const ClusteringResult identity;
  FrequencyTable empty;
  const auto applied = identity.apply(empty);
  EXPECT_EQ(applied.total(), 0u);
  EXPECT_EQ(applied.distinct(), 0u);
}

TEST(Clustering, ApplyToEmptySequenceListIsEmpty) {
  const ClusteringResult identity;
  const std::vector<SeqId> empty;
  EXPECT_TRUE(identity.apply(std::span<const SeqId>(empty)).empty());
}

}  // namespace
}  // namespace bkc::compress
