// Tests for compress/model_view.h — the non-owning artifact boundary
// between the compression pipeline and its consumers (hwsim, tooling).
//
// The contract under test: a CompressedModelView borrows, never copies
// and never recomputes — its blocks are the artifacts it was built
// over, assembly validates the op pairing, and building a view (or
// scanning a stream's code lengths) triggers zero pipeline primitives.

#include "compress/model_view.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "bnn/kernel_sequences.h"
#include "compress/instrumentation.h"
#include "core/engine.h"
#include "support/support.h"
#include "util/check.h"

namespace bkc::compress {
namespace {

TEST(ModelView, BlocksBorrowTheEngineArtifacts) {
  Engine engine(test::tiny_config(3));
  engine.compress();
  const CompressedModelView view = engine.artifact_view();
  const auto& streams = engine.block_streams();
  ASSERT_EQ(view.blocks.size(), streams.size());
  ASSERT_EQ(view.blocks.size(), engine.model().num_blocks());
  for (std::size_t b = 0; b < view.blocks.size(); ++b) {
    // The view refers to the engine's artifacts — no copies.
    EXPECT_EQ(&view.blocks[b].get(), &streams[b]);
  }
}

TEST(ModelView, OpLayoutPairsBlocksWith3x3ConvsInOrder) {
  Engine engine(test::tiny_config(5));
  engine.compress();
  const CompressedModelView view = engine.artifact_view();
  std::size_t block_index = 0;
  for (const bnn::OpRecord& op : view.ops) {
    if (op.precision_bits != 1 || op.op_class != bnn::OpClass::kConv3x3) {
      continue;
    }
    ASSERT_LT(block_index, view.blocks.size());
    const CompressedKernel& kernel = view.blocks[block_index].get().compressed;
    EXPECT_EQ(kernel.out_channels, op.kernel_shape.out_channels);
    EXPECT_EQ(kernel.in_channels, op.kernel_shape.in_channels);
    ++block_index;
  }
  EXPECT_EQ(block_index, view.blocks.size());
}

TEST(ModelView, ViewConstructionRunsNoPipelineWork) {
  Engine engine(test::tiny_config(7));
  engine.compress();
  const PipelineCounters before = pipeline_counters();
  const CompressedModelView view = engine.artifact_view();
  const PipelineCounters delta = pipeline_counters().delta_since(before);
  EXPECT_EQ(delta.frequency_counts, 0u);
  EXPECT_EQ(delta.cluster_sequences_calls, 0u);
  EXPECT_EQ(delta.grouped_codec_builds, 0u);
  EXPECT_FALSE(view.blocks.empty());
}

TEST(ModelView, RejectsStreamCountMismatch) {
  const bnn::ReActNet model(test::tiny_config(9));
  auto streams = test::clustered_artifacts(model);
  auto extra = streams;
  extra.push_back(streams.back());
  EXPECT_THROW(view_of(model.op_records(), extra), CheckError);
  streams.pop_back();
  EXPECT_THROW(view_of(model.op_records(), streams), CheckError);
}

TEST(ModelView, RejectsShapeMismatch) {
  const bnn::ReActNet model(test::tiny_config(11));
  auto streams = test::clustered_artifacts(model);
  {
    auto broken = streams;
    broken[0].compressed.out_channels += 1;
    EXPECT_THROW(view_of(model.op_records(), broken), CheckError);
  }
  // Untouched artifacts still assemble.
  EXPECT_EQ(view_of(model.op_records(), streams).blocks.size(),
            streams.size());
}

TEST(ModelView, ScanCodeLengthsMatchesCompressionArtifact) {
  // The prefix-only scan must recover exactly the lengths the encoder
  // assigned (the codec's length of each encoded sequence, in stream
  // order) — for both columns.
  const auto kernel = test::calibrated_kernel(32, 16, 17);
  const CompressedBlock block = test::encode_block(kernel);
  const std::pair<const KernelCompression*, const bnn::PackedKernel*>
      columns[] = {{&block.clustered, &block.clustered_kernel},
                   {&block.encoding, &kernel}};
  for (const auto& [column, encoded] : columns) {
    const KernelCompression& artifact = *column;
    std::vector<std::uint8_t> expected;
    for (const bnn::SeqId s : bnn::extract_sequences(*encoded)) {
      expected.push_back(
          static_cast<std::uint8_t>(artifact.codec.code_length(s)));
    }
    const PipelineCounters before = pipeline_counters();
    const std::vector<std::uint8_t> scanned = scan_code_lengths(
        artifact.compressed.stream, artifact.compressed.stream_bits,
        artifact.compressed.num_sequences(), artifact.codec.config());
    const PipelineCounters delta = pipeline_counters().delta_since(before);
    EXPECT_EQ(scanned, expected);
    EXPECT_EQ(delta.frequency_counts, 0u);
    EXPECT_EQ(delta.cluster_sequences_calls, 0u);
    EXPECT_EQ(delta.grouped_codec_builds, 0u);
  }
}

TEST(ModelView, ScanCodeLengthsRejectsTruncatedAndPaddedStreams) {
  const auto kernel = test::calibrated_kernel(16, 16, 19);
  const KernelCompression artifact = test::encode_block(kernel).clustered;
  const auto count = artifact.compressed.num_sequences();
  const auto& config = artifact.codec.config();
  // Mid-codeword cut.
  EXPECT_THROW(scan_code_lengths(artifact.compressed.stream,
                                 artifact.compressed.stream_bits - 3, count,
                                 config),
               CheckError);
  // Declared bits exceed the consumed bits (trailing garbage).
  EXPECT_THROW(scan_code_lengths(artifact.compressed.stream,
                                 artifact.compressed.stream_bits, count - 1,
                                 config),
               CheckError);
  // Bit count beyond the byte buffer.
  EXPECT_THROW(scan_code_lengths(artifact.compressed.stream,
                                 artifact.compressed.stream.size() * 8 + 1,
                                 count, config),
               CheckError);
}

}  // namespace
}  // namespace bkc::compress
