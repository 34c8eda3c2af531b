// The block codec (compress/block_codec.h): the single-pass
// instrumentation contract of compress_block, the per-block payload
// round trip through write_block / read_block / verify_artifact, and
// the one codec id make_block_codec accepts.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "compress/block_codec.h"
#include "compress/instrumentation.h"
#include "support/support.h"
#include "util/binary_io.h"
#include "util/check.h"

namespace bkc::compress {
namespace {

TEST(BlockCodec, CompressBlockKeepsTheSinglePassContract) {
  const bnn::PackedKernel kernel = test::calibrated_kernel(32, 32, 37);
  const PipelineCounters before = pipeline_counters();
  const CompressedBlock block = BlockCodec().compress_block("b", kernel);
  const PipelineCounters delta = pipeline_counters().delta_since(before);
  // One frequency count, one clustering search, two codec builds.
  EXPECT_EQ(delta.frequency_counts, 1u);
  EXPECT_EQ(delta.cluster_sequences_calls, 1u);
  EXPECT_EQ(delta.grouped_codec_builds, 2u);

  // Encoding-only stream decodes back to the input bit-exactly.
  EXPECT_TRUE(decode_block(block.encoding) == kernel);
  // The clustered stream decodes to the clustered kernel the pass
  // returns (what Engine::compress installs).
  EXPECT_TRUE(decode_block(block.clustered) == block.clustered_kernel);
}

TEST(BlockCodec, DefaultGroupedHuffmanCodecIsInert) {
  // KernelCompression default-constructs its codec member (read_block
  // starts from one); that must not count as a codec build.
  const PipelineCounters before = pipeline_counters();
  const GroupedHuffmanCodec inert;
  const PipelineCounters delta = pipeline_counters().delta_since(before);
  EXPECT_EQ(delta.grouped_codec_builds, 0u);
  EXPECT_EQ(inert.config().index_bits, GroupedTreeConfig::paper().index_bits);
}

TEST(BlockCodec, BlockPayloadRoundTripsThroughWriteReadAndVerify) {
  const bnn::PackedKernel kernel = test::calibrated_kernel(16, 32, 29);
  const CompressedBlock block = BlockCodec().compress_block("b", kernel);

  ByteWriter writer;
  write_block(writer, block.clustered);
  const std::vector<std::uint8_t> bytes = writer.take();

  ByteReader reader(bytes, "payload");
  const KernelCompression parsed = read_block(reader);
  reader.expect_exhausted();

  EXPECT_EQ(parsed.frequencies.counts(),
            block.clustered.frequencies.counts());
  EXPECT_EQ(parsed.code_lengths, block.clustered.code_lengths);
  // The parsed artifact owns its stream: it reproduces the original
  // compressed kernel, and decoding reproduces the kernel the clustered
  // stream encodes.
  EXPECT_EQ(parsed.compressed.stream, block.clustered.compressed.stream);
  EXPECT_TRUE(decode_block(parsed) == block.clustered_kernel);

  // verify_artifact accepts the honest artifact and rejects a tampered
  // frequency table.
  verify_artifact(parsed, 0);
  KernelCompression tampered = parsed;
  tampered.frequencies = FrequencyTable::from_sequences(
      std::vector<SeqId>(tampered.compressed.num_sequences(),
                         static_cast<SeqId>(3)));
  EXPECT_THROW(verify_artifact(tampered, 0), CheckError);
}

TEST(BlockCodec, MakeBlockCodecAcceptsOnlyTheGroupedId) {
  const ClusteringConfig clustering{.most_common = 8, .least_common = 8};
  const auto codec = make_block_codec(kCodecGroupedHuffman,
                                      GroupedTreeConfig::paper(), clustering);
  EXPECT_EQ(codec->tree().index_bits, GroupedTreeConfig::paper().index_bits);
  EXPECT_EQ(codec->clustering().most_common, 8u);
  try {
    (void)make_block_codec(99, GroupedTreeConfig::paper(), {});
    FAIL() << "codec id 99 must throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("unregistered codec id 99"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace bkc::compress
