// The pluggable block-codec layer (compress/block_codec.h): registry
// dispatch, the mst-delta backend's dictionary/stream machinery
// (compress/mst_codec.h), its per-block artifacts, and the pipeline
// instrumentation contract of both backends.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bnn/kernel_sequences.h"
#include "compress/block_codec.h"
#include "compress/instrumentation.h"
#include "compress/mst_codec.h"
#include "support/support.h"
#include "util/binary_io.h"
#include "util/check.h"

namespace bkc::compress {
namespace {

FrequencyTable table_of(const bnn::PackedKernel& kernel) {
  return FrequencyTable::from_sequences(bnn::extract_sequences(kernel));
}

// ---- MST dictionary ----

TEST(MstDictionary, BuildCoversEveryDistinctSequenceOnce) {
  const bnn::PackedKernel kernel = test::calibrated_kernel(16, 16, 7);
  const FrequencyTable table = table_of(kernel);
  const MstDictionary dict = MstDictionary::build(table);

  ASSERT_EQ(dict.size(), table.distinct());
  EXPECT_EQ(dict.root(), table.ranked().front());
  for (std::size_t s = 0; s < bnn::kNumSequences; ++s) {
    const auto id = static_cast<SeqId>(s);
    EXPECT_EQ(dict.contains(id), table.counts()[s] > 0) << "sequence " << s;
  }
  // index_of is the inverse of the sequence layout.
  for (std::size_t i = 0; i < dict.size(); ++i) {
    EXPECT_EQ(dict.index_of(dict.sequences()[i]), i);
  }
  EXPECT_THROW(
      (void)dict.index_of(static_cast<SeqId>(
          std::find(table.counts().begin(), table.counts().end(), 0u) -
          table.counts().begin())),
      CheckError);
}

TEST(MstDictionary, BuildIsDeterministic) {
  const FrequencyTable table =
      table_of(test::calibrated_kernel(32, 32, 11));
  const MstDictionary a = MstDictionary::build(table);
  const MstDictionary b = MstDictionary::build(table);
  ASSERT_EQ(a.sequences(), b.sequences());
  ASSERT_EQ(a.edges().size(), b.edges().size());
  for (std::size_t i = 0; i < a.edges().size(); ++i) {
    EXPECT_EQ(a.edges()[i].parent, b.edges()[i].parent);
    EXPECT_EQ(a.edges()[i].delta, b.edges()[i].delta);
  }
}

TEST(MstDictionary, EdgesReconstructTheSequences) {
  const MstDictionary built =
      MstDictionary::build(table_of(test::calibrated_kernel(16, 32, 13)));
  const MstDictionary restored =
      MstDictionary::from_edges(built.root(), built.edges());
  EXPECT_EQ(restored.sequences(), built.sequences());
  EXPECT_EQ(restored.index_width(), built.index_width());
  EXPECT_EQ(restored.table_bits(), built.table_bits());
}

TEST(MstDictionary, FromEdgesRejectsHostileInput) {
  // Root out of the 9-bit alphabet.
  EXPECT_THROW(MstDictionary::from_edges(static_cast<SeqId>(512), {}),
               CheckError);
  // Edge parent referring to a not-yet-built entry.
  EXPECT_THROW(MstDictionary::from_edges(
                   0, {{.parent = 1, .delta = 1}, {.parent = 0, .delta = 2}}),
               CheckError);
  // Zero delta would duplicate its parent.
  EXPECT_THROW(MstDictionary::from_edges(0, {{.parent = 0, .delta = 0}}),
               CheckError);
  // Delta beyond 9 bits.
  EXPECT_THROW(MstDictionary::from_edges(0, {{.parent = 0, .delta = 512}}),
               CheckError);
  // Two entries collapsing to the same sequence (0 ^ 1 twice).
  EXPECT_THROW(MstDictionary::from_edges(
                   0, {{.parent = 0, .delta = 1}, {.parent = 0, .delta = 1}}),
               CheckError);
}

TEST(MstDictionary, IndexWidthIsPositiveEvenForOneEntry) {
  const MstDictionary dict = MstDictionary::from_edges(5, {});
  ASSERT_EQ(dict.size(), 1u);
  EXPECT_EQ(dict.index_width(), 1u);
  // Root costs 9 raw bits; no edges.
  EXPECT_EQ(dict.table_bits(), 9u);
}

TEST(MstStream, EncodeDecodeIsLossless) {
  const bnn::PackedKernel kernel = test::calibrated_kernel(32, 16, 17);
  const std::vector<SeqId> sequences = bnn::extract_sequences(kernel);
  const MstDictionary dict = MstDictionary::build(table_of(kernel));

  std::size_t bit_count = 0;
  const std::vector<std::uint8_t> stream =
      mst_encode(sequences, dict, bit_count);
  EXPECT_EQ(bit_count, sequences.size() * dict.index_width());
  const std::vector<SeqId> decoded =
      mst_decode(stream, bit_count, sequences.size(), dict);
  EXPECT_EQ(decoded, sequences);
}

TEST(MstStream, DecodeRejectsBadBudgetAndIndices) {
  const MstDictionary dict = MstDictionary::from_edges(
      0, {{.parent = 0, .delta = 1}, {.parent = 0, .delta = 2}});
  ASSERT_EQ(dict.size(), 3u);
  ASSERT_EQ(dict.index_width(), 2u);

  std::size_t bit_count = 0;
  const std::vector<SeqId> sequences = {0, 1, 2, 1};
  const std::vector<std::uint8_t> stream =
      mst_encode(sequences, dict, bit_count);
  // Budget not a multiple of the width / not matching the count.
  EXPECT_THROW(mst_decode(stream, bit_count - 1, sequences.size(), dict),
               CheckError);
  // Budget larger than the physical stream.
  EXPECT_THROW(
      mst_decode(stream, stream.size() * 8 + 8, sequences.size() + 3, dict),
      CheckError);
  // Index 3 is beyond the 3-entry dictionary: all-ones byte.
  const std::vector<std::uint8_t> hostile = {0xff};
  EXPECT_THROW(mst_decode(hostile, 2, 1, dict), CheckError);
}

// ---- Registry ----

TEST(BlockCodecRegistry, RegisteredIdsAndNames) {
  EXPECT_TRUE(block_codec_registered(kCodecGroupedHuffman));
  EXPECT_TRUE(block_codec_registered(kCodecMstDelta));
  EXPECT_FALSE(block_codec_registered(0));
  EXPECT_FALSE(block_codec_registered(99));

  const auto ids = registered_block_codecs();
  EXPECT_NE(std::find(ids.begin(), ids.end(), kCodecGroupedHuffman),
            ids.end());
  EXPECT_NE(std::find(ids.begin(), ids.end(), kCodecMstDelta), ids.end());

  EXPECT_EQ(codec_for(kCodecGroupedHuffman).name(), "grouped-huffman");
  EXPECT_EQ(codec_for(kCodecMstDelta).name(), "mst-delta");
  EXPECT_EQ(codec_for(kCodecGroupedHuffman).id(), kCodecGroupedHuffman);
  EXPECT_EQ(codec_for(kCodecMstDelta).id(), kCodecMstDelta);

  EXPECT_EQ(block_codec_id("grouped-huffman"), kCodecGroupedHuffman);
  EXPECT_EQ(block_codec_id("mst-delta"), kCodecMstDelta);
}

TEST(BlockCodecRegistry, UnregisteredLookupsFailWithTheRegisteredList) {
  try {
    (void)codec_for(99);
    FAIL() << "unregistered id must throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("unregistered codec"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("grouped-huffman"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)block_codec_id("no-such-codec"), CheckError);
  EXPECT_THROW((void)make_block_codec(99, GroupedTreeConfig::paper(), {}),
               CheckError);
}

// ---- mst-delta block codec ----

TEST(MstBlockCodec, CompressBlockIsLosslessWithNeutralReport) {
  const bnn::PackedKernel kernel = test::calibrated_kernel(32, 32, 19);
  const BlockCodec& codec = codec_for(kCodecMstDelta);
  const CompressedBlock block = codec.compress_block("b1", kernel);

  // No clustering pass: the deployed stream IS the encoding stream and
  // the accuracy proxy is exactly zero.
  EXPECT_EQ(block.report.flipped_bit_fraction, 0.0);
  EXPECT_EQ(block.report.replaced_sequences, 0u);
  EXPECT_EQ(block.report.encoding_bits, block.report.clustering_bits);
  EXPECT_EQ(block.report.encoding_ratio, block.report.clustering_ratio);
  EXPECT_TRUE(block.clustered.clustering.replacements().empty());
  EXPECT_EQ(block.clustered.codec_id, kCodecMstDelta);
  EXPECT_GT(block.report.decode_table_bits, 0u);

  // Decode returns the original kernel bit-exactly (lossless).
  EXPECT_TRUE(codec.decode(block.clustered) == kernel);
  EXPECT_TRUE(block.clustered_kernel == kernel);
  EXPECT_TRUE(decode_block(block.clustered) == kernel);

  // Fixed-width stream: every code length is the dictionary width and
  // the bit budget is exact.
  ASSERT_FALSE(block.clustered.code_lengths.empty());
  const std::uint8_t width = block.clustered.code_lengths.front();
  for (const std::uint8_t length : block.clustered.code_lengths) {
    EXPECT_EQ(length, width);
  }
  EXPECT_EQ(block.clustered.compressed.stream_bits,
            block.clustered.code_lengths.size() * width);
}

TEST(MstBlockCodec, CompressBlockRunsOneFrequencyCountAndNothingElse) {
  const bnn::PackedKernel kernel = test::calibrated_kernel(16, 16, 23);
  const PipelineCounters before = pipeline_counters();
  (void)codec_for(kCodecMstDelta).compress_block("b", kernel);
  const PipelineCounters delta = pipeline_counters().delta_since(before);
  EXPECT_EQ(delta.frequency_counts, 1u);
  EXPECT_EQ(delta.cluster_sequences_calls, 0u);
  EXPECT_EQ(delta.grouped_codec_builds, 0u);
}

TEST(MstBlockCodec, BlockPayloadRoundTripsThroughWriteAndRead) {
  const bnn::PackedKernel kernel = test::calibrated_kernel(16, 32, 29);
  const BlockCodec& codec = codec_for(kCodecMstDelta);
  CompressedBlock block = codec.compress_block("b", kernel);

  ByteWriter writer;
  codec.write_block(writer, block.clustered);
  const std::vector<std::uint8_t> bytes = writer.take();

  ByteReader reader(bytes, "payload");
  ParsedBlock parsed = codec.read_block(reader);
  reader.expect_exhausted();

  EXPECT_EQ(parsed.artifact.codec_id, kCodecMstDelta);
  EXPECT_EQ(parsed.artifact.frequencies.counts(),
            block.clustered.frequencies.counts());
  EXPECT_EQ(parsed.artifact.mst.sequences(), block.clustered.mst.sequences());
  EXPECT_EQ(parsed.artifact.code_lengths, block.clustered.code_lengths);
  // The parsed artifact borrows its stream; copying it in reproduces
  // the original compressed kernel, and decoding reproduces the input.
  EXPECT_TRUE(parsed.artifact.compressed.stream.empty());
  parsed.artifact.compressed.stream.assign(parsed.stream.begin(),
                                           parsed.stream.end());
  EXPECT_EQ(parsed.artifact.compressed.stream,
            block.clustered.compressed.stream);
  EXPECT_TRUE(decode_block(parsed.artifact) == kernel);

  // verify_artifact accepts the honest artifact and rejects a tampered
  // frequency table.
  codec.verify_artifact(parsed.artifact, 0);
  KernelCompression tampered = parsed.artifact;
  tampered.frequencies = FrequencyTable::from_sequences(
      std::vector<SeqId>(tampered.compressed.num_sequences(),
                         static_cast<SeqId>(3)));
  EXPECT_THROW(codec.verify_artifact(tampered, 0), CheckError);
}

TEST(MstBlockCodec, WriteBlockRejectsForeignArtifacts) {
  const bnn::PackedKernel kernel = test::calibrated_kernel(16, 16, 31);
  CompressedBlock grouped =
      codec_for(kCodecGroupedHuffman).compress_block("b", kernel);
  ByteWriter writer;
  EXPECT_THROW(
      codec_for(kCodecMstDelta).write_block(writer, grouped.clustered),
      CheckError);
  EXPECT_THROW(
      codec_for(kCodecGroupedHuffman)
          .write_block(writer,
                       codec_for(kCodecMstDelta)
                           .compress_block("b", kernel)
                           .clustered),
      CheckError);
}

// ---- grouped-huffman through the interface ----

TEST(GroupedBlockCodec, MatchesThePreInterfacePipelineContract) {
  const bnn::PackedKernel kernel = test::calibrated_kernel(32, 32, 37);
  const PipelineCounters before = pipeline_counters();
  const CompressedBlock block =
      codec_for(kCodecGroupedHuffman).compress_block("b", kernel);
  const PipelineCounters delta = pipeline_counters().delta_since(before);
  // The original single-pass contract, unchanged by the refactor: one
  // frequency count, one clustering search, two codec builds.
  EXPECT_EQ(delta.frequency_counts, 1u);
  EXPECT_EQ(delta.cluster_sequences_calls, 1u);
  EXPECT_EQ(delta.grouped_codec_builds, 2u);

  EXPECT_EQ(block.encoding.codec_id, kCodecGroupedHuffman);
  EXPECT_EQ(block.clustered.codec_id, kCodecGroupedHuffman);
  // Encoding-only stream decodes back to the input bit-exactly.
  EXPECT_TRUE(decode_block(block.encoding) == kernel);
  // The clustered stream decodes to the clustered kernel the pass
  // returns (what Engine::compress installs).
  EXPECT_TRUE(decode_block(block.clustered) == block.clustered_kernel);
}

TEST(GroupedBlockCodec, DefaultGroupedHuffmanCodecIsInert) {
  // KernelCompression (and ParsedBlock) default-construct their codec
  // member; that must not count as a codec build.
  const PipelineCounters before = pipeline_counters();
  const GroupedHuffmanCodec inert;
  const PipelineCounters delta = pipeline_counters().delta_since(before);
  EXPECT_EQ(delta.grouped_codec_builds, 0u);
  EXPECT_EQ(inert.config().index_bits, GroupedTreeConfig::paper().index_bits);
}

TEST(ModelCompressor, CodecIdSelectsTheBackend) {
  EXPECT_EQ(ModelCompressor().codec_id(), kCodecGroupedHuffman);
  const ModelCompressor mst(GroupedTreeConfig::paper(), {}, kCodecMstDelta);
  EXPECT_EQ(mst.codec_id(), kCodecMstDelta);
  EXPECT_THROW(
      ModelCompressor(GroupedTreeConfig::paper(), {}, /*codec_id=*/99),
      CheckError);

  const bnn::ReActNet model(test::tiny_config(41));
  const CompressedModel compressed = mst.compress_model(model, 2);
  for (const CompressedBlock& block : compressed.blocks) {
    EXPECT_EQ(block.clustered.codec_id, kCodecMstDelta);
    EXPECT_EQ(block.report.flipped_bit_fraction, 0.0);
  }
}

}  // namespace
}  // namespace bkc::compress
