// Tests for whole-kernel compression (the stream format of Sec IV-B),
// through the one encoder (BlockCodec::compress_block) and the one way
// back (decode_block).

#include "compress/kernel_codec.h"

#include <gtest/gtest.h>

#include "bnn/kernel_sequences.h"
#include "compress/block_codec.h"
#include "support/support.h"
#include "util/check.h"

namespace bkc::compress {
namespace {

using test::calibrated_kernel;
using test::encode_block;

TEST(KernelCodec, LosslessRoundtrip) {
  const auto kernel = calibrated_kernel(32, 64, 3);
  const CompressedBlock block = encode_block(kernel);
  EXPECT_TRUE(decode_block(block.encoding) == kernel);
}

TEST(KernelCodec, StreamIsSmallerThanPlain) {
  const auto kernel = calibrated_kernel(64, 64, 5);
  const CompressedKernel compressed = encode_block(kernel).encoding.compressed;
  EXPECT_LT(compressed.stream_bits, compressed.uncompressed_bits());
  EXPECT_GT(compressed.ratio(), 1.05);
  EXPECT_EQ(compressed.num_sequences(), 64u * 64u);
  // Byte buffer holds exactly the stream bits.
  EXPECT_EQ(compressed.stream.size(), (compressed.stream_bits + 7) / 8);
}

TEST(KernelCodec, StreamBitsMatchCodecAccounting) {
  const auto kernel = calibrated_kernel(16, 32, 7);
  const auto table = FrequencyTable::from_kernel(kernel);
  const GroupedHuffmanCodec codec(table);
  const CompressedBlock block = encode_block(kernel);
  EXPECT_EQ(block.encoding.compressed.stream_bits, codec.encoded_bits(table));
}

TEST(KernelCodec, EncodingColumnIsExact) {
  const auto kernel = calibrated_kernel(24, 48, 9);
  const CompressedBlock block = encode_block(kernel);
  EXPECT_EQ(block.encoding.clustering.replaced_occurrences(), 0u);
  EXPECT_TRUE(decode_block(block.encoding) == kernel);
}

TEST(KernelCodec, ClusteredColumnDecodesToClusteredKernel) {
  const auto kernel = calibrated_kernel(64, 128, 11);
  const CompressedBlock block = encode_block(kernel);
  const KernelCompression& result = block.clustered;
  // The stream encodes the clustered kernel bit-exactly...
  EXPECT_TRUE(decode_block(result) == block.clustered_kernel);
  // ...which differs from the original by the replaced channels only.
  const auto before = bnn::extract_sequences(kernel);
  const auto after = bnn::extract_sequences(block.clustered_kernel);
  std::size_t changed = 0;
  for (std::size_t i = 0; i < before.size(); ++i) {
    if (before[i] != after[i]) {
      ++changed;
      EXPECT_EQ(result.clustering.remap(before[i]), after[i]);
    }
  }
  EXPECT_EQ(changed > 0, result.clustering.replaced_occurrences() > 0);
}

TEST(KernelCodec, ClusteringImprovesRatio) {
  const auto kernel = calibrated_kernel(128, 256, 13);
  const CompressedBlock block = encode_block(kernel);
  EXPECT_GT(block.clustered.compressed.ratio(),
            block.encoding.compressed.ratio());
}

TEST(KernelCodec, EmptyStreamRatioThrows) {
  CompressedKernel empty;
  EXPECT_THROW(empty.ratio(), bkc::CheckError);
}

TEST(KernelCodec, TinyKernelRoundtrip) {
  const std::vector<SeqId> seqs{0, 511, 369, 7};
  const auto kernel = bnn::kernel_from_sequences(2, 2, seqs);
  EXPECT_TRUE(test::pipeline_round_trip(kernel, false) == kernel);
}

}  // namespace
}  // namespace bkc::compress
