// Integration tests: the model-level compression pipeline (Sec IV-A)
// over a (reduced) ReActNet, checking the Table II / Table V bands, the
// single-pass compress_model contract (report derived from the stream
// artifacts, each primitive invoked once per block) and the aggregation
// hardening.

#include "compress/pipeline.h"

#include <gtest/gtest.h>

#include "support/support.h"

#include "bnn/reactnet.h"
#include "compress/block_codec.h"
#include "compress/huffman.h"
#include "compress/instrumentation.h"
#include "util/binary_io.h"
#include "util/check.h"
#include "util/stats.h"

namespace bkc::compress {
namespace {

using test::mid_config;

// ---------------------------------------------------------------------
// Reference implementation of the pre-refactor TWO-PASS pipeline: the
// report pass (the old ModelCompressor::analyze) rebuilt from the
// public primitives, exactly as it was written before compress_model
// folded report derivation onto the stream artifacts. The equivalence
// test below asserts the single-pass report is field-for-field
// bit-identical to this.

BlockReport legacy_analyze_block(const std::string& name,
                                 const bnn::PackedKernel& kernel,
                                 const GroupedTreeConfig& tree,
                                 const ClusteringConfig& clustering_config) {
  BlockReport report;
  report.block_name = name;

  const FrequencyTable table = FrequencyTable::from_kernel(kernel);
  report.num_sequences = table.total();
  report.distinct_sequences = table.distinct();
  report.top16_share = table.top_k_share(16);
  report.top64_share = table.top_k_share(64);
  report.top256_share = table.top_k_share(256);
  report.entropy_bits = table.entropy_bits();
  report.uncompressed_bits = table.total() * bnn::kSeqBits;

  const GroupedHuffmanCodec plain_codec(table, tree);
  report.encoding_bits = plain_codec.encoded_bits(table);
  report.encoding_ratio = plain_codec.compression_ratio(table);
  for (int n = 0; n < tree.num_nodes(); ++n) {
    report.node_shares_encoding.push_back(plain_codec.node_share(n, table));
  }

  const ClusteringResult clustering =
      cluster_sequences(table, clustering_config);
  const FrequencyTable clustered = clustering.apply(table);
  const GroupedHuffmanCodec clustered_codec(clustered, tree);
  report.clustering_bits = clustered_codec.encoded_bits(clustered);
  report.clustering_ratio = clustered_codec.compression_ratio(clustered);
  for (int n = 0; n < tree.num_nodes(); ++n) {
    report.node_shares_clustering.push_back(
        clustered_codec.node_share(n, clustered));
  }
  report.flipped_bit_fraction = clustering.flipped_bit_fraction();
  report.replaced_sequences = clustering.replacements().size();
  report.decode_table_bits = clustered_codec.table_bits();

  const HuffmanCodec huffman = HuffmanCodec::build(clustered);
  report.huffman_ratio = huffman.compression_ratio(clustered);
  return report;
}

ModelReport legacy_analyze(const bnn::ReActNet& model,
                           const GroupedTreeConfig& tree,
                           const ClusteringConfig& clustering_config) {
  ModelReport report;
  std::vector<double> encoding_ratios;
  std::vector<double> clustering_ratios;
  for (std::size_t b = 0; b < model.num_blocks(); ++b) {
    const auto& block = model.block(b);
    BlockReport block_report = legacy_analyze_block(
        block.name(), block.conv3x3().kernel(), tree, clustering_config);
    report.conv3x3_bits += block_report.uncompressed_bits;
    report.conv3x3_encoding_bits += block_report.encoding_bits;
    report.conv3x3_clustering_bits += block_report.clustering_bits;
    report.decode_table_bits += block_report.decode_table_bits;
    encoding_ratios.push_back(block_report.encoding_ratio);
    clustering_ratios.push_back(block_report.clustering_ratio);
    report.blocks.push_back(std::move(block_report));
  }
  report.mean_encoding_ratio = mean(encoding_ratios);
  report.mean_clustering_ratio = mean(clustering_ratios);
  report.model_bits = model.storage().total_bits;
  const std::uint64_t other_bits = report.model_bits - report.conv3x3_bits;
  report.model_ratio =
      static_cast<double>(report.model_bits) /
      static_cast<double>(other_bits + report.conv3x3_clustering_bits);
  report.model_ratio_with_tables =
      static_cast<double>(report.model_bits) /
      static_cast<double>(other_bits + report.conv3x3_clustering_bits +
                          report.decode_table_bits);
  return report;
}

// Field-for-field bit-identity (EXPECT_EQ on doubles is exact).
void expect_reports_bit_identical(const ModelReport& a,
                                  const ModelReport& b) {
  ASSERT_EQ(a.blocks.size(), b.blocks.size());
  for (std::size_t i = 0; i < a.blocks.size(); ++i) {
    const BlockReport& x = a.blocks[i];
    const BlockReport& y = b.blocks[i];
    EXPECT_EQ(x.block_name, y.block_name);
    EXPECT_EQ(x.num_sequences, y.num_sequences);
    EXPECT_EQ(x.distinct_sequences, y.distinct_sequences);
    EXPECT_EQ(x.top16_share, y.top16_share);
    EXPECT_EQ(x.top64_share, y.top64_share);
    EXPECT_EQ(x.top256_share, y.top256_share);
    EXPECT_EQ(x.entropy_bits, y.entropy_bits);
    EXPECT_EQ(x.uncompressed_bits, y.uncompressed_bits);
    EXPECT_EQ(x.encoding_bits, y.encoding_bits);
    EXPECT_EQ(x.clustering_bits, y.clustering_bits);
    EXPECT_EQ(x.encoding_ratio, y.encoding_ratio);
    EXPECT_EQ(x.clustering_ratio, y.clustering_ratio);
    EXPECT_EQ(x.huffman_ratio, y.huffman_ratio);
    EXPECT_EQ(x.node_shares_encoding, y.node_shares_encoding);
    EXPECT_EQ(x.node_shares_clustering, y.node_shares_clustering);
    EXPECT_EQ(x.flipped_bit_fraction, y.flipped_bit_fraction);
    EXPECT_EQ(x.replaced_sequences, y.replaced_sequences);
    EXPECT_EQ(x.decode_table_bits, y.decode_table_bits);
  }
  EXPECT_EQ(a.model_bits, b.model_bits);
  EXPECT_EQ(a.conv3x3_bits, b.conv3x3_bits);
  EXPECT_EQ(a.conv3x3_encoding_bits, b.conv3x3_encoding_bits);
  EXPECT_EQ(a.conv3x3_clustering_bits, b.conv3x3_clustering_bits);
  EXPECT_EQ(a.decode_table_bits, b.decode_table_bits);
  EXPECT_EQ(a.mean_encoding_ratio, b.mean_encoding_ratio);
  EXPECT_EQ(a.mean_clustering_ratio, b.mean_clustering_ratio);
  EXPECT_EQ(a.model_ratio, b.model_ratio);
  EXPECT_EQ(a.model_ratio_with_tables, b.model_ratio_with_tables);
}

TEST(Pipeline, AnalyzeProducesOneReportPerBlock) {
  const bnn::ReActNet model(mid_config(3));
  const ModelCompressor compressor;
  const ModelReport report = compressor.analyze(model);
  ASSERT_EQ(report.blocks.size(), 13u);
  for (const auto& block : report.blocks) {
    EXPECT_GT(block.num_sequences, 0u);
    EXPECT_GT(block.encoding_ratio, 1.0);
    EXPECT_GE(block.clustering_ratio, block.encoding_ratio * 0.98);
    EXPECT_GE(block.huffman_ratio, block.clustering_ratio - 1e-9);
    EXPECT_EQ(block.node_shares_encoding.size(), 4u);
    EXPECT_EQ(block.uncompressed_bits, block.num_sequences * 9);
  }
}

TEST(Pipeline, MeansSitInThePaperBands) {
  const bnn::ReActNet model(mid_config(5));
  const ModelCompressor compressor;
  const ModelReport report = compressor.analyze(model);
  // Paper: encoding 1.18-1.25 (mean ~1.2), clustering 1.30-1.36
  // (mean 1.32), whole model 1.2x. Our synthetic distributions land in
  // adjacent bands (see EXPERIMENTS.md for the full comparison).
  EXPECT_GT(report.mean_encoding_ratio, 1.08);
  EXPECT_LT(report.mean_encoding_ratio, 1.35);
  EXPECT_GT(report.mean_clustering_ratio, 1.2);
  EXPECT_LT(report.mean_clustering_ratio, 1.45);
  EXPECT_GT(report.mean_clustering_ratio, report.mean_encoding_ratio);
  EXPECT_GT(report.model_ratio, 1.1);
  EXPECT_LT(report.model_ratio, 1.3);
  // Charging the decode tables can only reduce the ratio; on this
  // reduced-width model the tables are a visible (but bounded) cost,
  // on the full-size model they are negligible (see bench/table5).
  EXPECT_LE(report.model_ratio_with_tables, report.model_ratio);
  EXPECT_GT(report.model_ratio_with_tables, 1.05);
}

TEST(Pipeline, BlockStatisticsTrackTableII) {
  const bnn::ReActNet model(mid_config(7));
  const ModelCompressor compressor;
  const ModelReport report = compressor.analyze(model);
  const auto& targets = bnn::paper_table2_targets();
  for (std::size_t b = 0; b < report.blocks.size(); ++b) {
    // Sampled shares track the fitted targets once the block has enough
    // sequences for the empirical distribution to converge; blocks with
    // few channels saturate (e.g. 64 sequences -> top-64 is trivially
    // 100%), so only statistically meaningful blocks are checked.
    if (report.blocks[b].num_sequences < 4096) continue;
    EXPECT_NEAR(report.blocks[b].top64_share, targets[b].top64, 0.08)
        << "block " << b;
    EXPECT_NEAR(report.blocks[b].top256_share, targets[b].top256, 0.06)
        << "block " << b;
  }
}

TEST(Pipeline, EncodingArtifactsRoundtrip) {
  const bnn::ReActNet model(mid_config(9));
  const ModelCompressor compressor;
  const CompressedModel compressed = compressor.compress_model(model);
  ASSERT_EQ(compressed.blocks.size(), model.num_blocks());
  for (std::size_t b = 0; b < compressed.blocks.size(); ++b) {
    EXPECT_TRUE(decode_block(compressed.blocks[b].encoding) ==
                model.block(b).conv3x3().kernel());
  }
}

TEST(Pipeline, InstallingClusteredKernelsMutatesKernels) {
  bnn::ReActNet model(mid_config(11));
  // Remember a kernel before installing.
  const auto before = model.block(5).conv3x3().kernel();
  CompressedModel compressed = ModelCompressor().compress_model(model);
  for (std::size_t b = 0; b < model.num_blocks(); ++b) {
    model.block(b).conv3x3().set_kernel(
        std::move(compressed.blocks[b].clustered_kernel));
  }
  const auto& after = model.block(5).conv3x3().kernel();
  EXPECT_FALSE(before == after);  // clustering flipped some weights
  EXPECT_GT(compressed.report.mean_clustering_ratio, 1.0);
}

TEST(Pipeline, InstalledModelStillRunsInference) {
  bnn::ReActNet model(bnn::tiny_reactnet_config(13));
  bnn::WeightGenerator gen(14);
  const Tensor image = gen.sample_activation(model.input_shape());
  const Tensor before = test::run_forward(model, image);
  CompressedModel compressed = ModelCompressor().compress_model(model);
  for (std::size_t b = 0; b < model.num_blocks(); ++b) {
    model.block(b).conv3x3().set_kernel(
        std::move(compressed.blocks[b].clustered_kernel));
  }
  const Tensor after = test::run_forward(model, image);
  ASSERT_EQ(after.shape(), before.shape());
  // Outputs shift slightly (clustering flips ~1-3% of weights) but stay
  // in a comparable range - the paper's "without negatively impacting
  // accuracy" regime.
  double diff = 0.0;
  double magnitude = 0.0;
  for (std::size_t i = 0; i < after.data().size(); ++i) {
    diff += std::abs(after.data()[i] - before.data()[i]);
    magnitude += std::abs(before.data()[i]);
  }
  EXPECT_LT(diff, 0.75 * magnitude + 1e-6);
}

TEST(Pipeline, SinglePassReportMatchesTwoPassReference) {
  // The acceptance bar of the refactor: the report derived from the
  // stream artifacts must be field-for-field bit-identical to the
  // pre-refactor two-pass output, at every tested thread count. The
  // full 1/2/4/7 sweep runs on the tiny model; the mid-width model
  // (richer, Table II-calibrated distributions) covers the serial and
  // the uneven-partition parallel case, which keeps the suite inside
  // the sanitizer-CI time budget.
  {
    const bnn::ReActNet tiny(test::tiny_config(17));
    const ModelCompressor compressor;
    const ModelReport reference = legacy_analyze(tiny, compressor.tree(),
                                                 compressor.clustering());
    for (int threads : {1, 2, 4, 7}) {
      expect_reports_bit_identical(
          compressor.compress_model(tiny, threads).report, reference);
      expect_reports_bit_identical(compressor.analyze(tiny, threads),
                                   reference);
    }
  }
  {
    const bnn::ReActNet mid(mid_config(17));
    const ModelCompressor compressor;
    const ModelReport reference = legacy_analyze(mid, compressor.tree(),
                                                 compressor.clustering());
    for (int threads : {1, 4}) {
      expect_reports_bit_identical(
          compressor.compress_model(mid, threads).report, reference);
    }
  }
}

TEST(Pipeline, CompressModelReportMatchesItsOwnArtifacts) {
  // The report is a pure function of the artifacts riding next to it.
  const bnn::ReActNet model(mid_config(19));
  const ModelCompressor compressor;
  const CompressedModel compressed = compressor.compress_model(model);
  for (std::size_t b = 0; b < compressed.blocks.size(); ++b) {
    const CompressedBlock& block = compressed.blocks[b];
    EXPECT_EQ(block.report.num_sequences, block.encoding.frequencies.total());
    EXPECT_EQ(block.report.encoding_bits,
              block.encoding.compressed.stream_bits);
    EXPECT_EQ(block.report.clustering_bits,
              block.clustered.compressed.stream_bits);
    EXPECT_EQ(block.report.decode_table_bits,
              block.clustered.codec.table_bits());
    EXPECT_EQ(block.report.replaced_sequences,
              block.clustered.clustering.replacements().size());
    // Both streams decode back to the kernel they encode.
    EXPECT_TRUE(decode_block(block.encoding) ==
                model.block(b).conv3x3().kernel());
    EXPECT_TRUE(decode_block(block.clustered) == block.clustered_kernel);
  }
}

TEST(Pipeline, CompressModelRunsEachPrimitiveOncePerBlock) {
  // The single-pass contract, enforced by the invocation counters: one
  // frequency count and one clustering search per block, and exactly
  // two grouped-codec builds (encoding + clustering columns).
  const bnn::ReActNet model(test::tiny_config(21));
  const ModelCompressor compressor;
  const auto blocks = static_cast<std::uint64_t>(model.num_blocks());
  const PipelineCounters before = pipeline_counters();
  compressor.compress_model(model, 2);
  const PipelineCounters delta = pipeline_counters().delta_since(before);
  EXPECT_EQ(delta.frequency_counts, blocks);
  EXPECT_EQ(delta.cluster_sequences_calls, blocks);
  EXPECT_EQ(delta.grouped_codec_builds, 2 * blocks);
}

TEST(Pipeline, CompressModelStreamsArePinned) {
  // Every emitted stream of the default grouped-huffman pass, pinned by
  // its bit count and CRC-32: any change to the per-block encoder that
  // moves a single stream bit fails here. {encoding, clustered} per
  // block of tiny_config(23).
  struct Pin {
    std::size_t stream_bits;
    std::uint32_t crc;
  };
  const Pin pins[][2] = {
      {{96, 0xf2941434u}, {96, 0xf2941434u}},
      {{398, 0xfb41ec05u}, {398, 0xfb41ec05u}},
      {{1806, 0xbb755e01u}, {1676, 0xe5588900u}},
      {{1759, 0x11c2e809u}, {1668, 0xfd7cddfau}},
      {{7674, 0x7eb0b2eau}, {6719, 0x1f05b626u}},
      {{7571, 0x062bde93u}, {6661, 0x072bace2u}},
      {{31773, 0x0906e41cu}, {27080, 0xd9626560u}},
      {{31629, 0xf04e9de5u}, {27138, 0x80579382u}},
      {{32815, 0xb72f8096u}, {27219, 0x4432bfe4u}},
      {{31873, 0x8a40e42du}, {27275, 0x266f24d8u}},
      {{30602, 0xcc3a8d17u}, {26571, 0x46c36491u}},
      {{29390, 0x7a4f599fu}, {26212, 0x1d5a8db1u}},
      {{132519, 0x87e0705au}, {115209, 0x0088dbe9u}},
  };
  const bnn::ReActNet model(test::tiny_config(23));
  const CompressedModel compressed = ModelCompressor().compress_model(model);
  ASSERT_EQ(compressed.blocks.size(), std::size(pins));
  for (std::size_t b = 0; b < compressed.blocks.size(); ++b) {
    const KernelCompression* columns[] = {&compressed.blocks[b].encoding,
                                          &compressed.blocks[b].clustered};
    for (std::size_t c = 0; c < 2; ++c) {
      const CompressedKernel& stream = columns[c]->compressed;
      EXPECT_EQ(stream.stream_bits, pins[b][c].stream_bits)
          << "block " << b << " column " << c;
      EXPECT_EQ(crc32(stream.stream), pins[b][c].crc)
          << "block " << b << " column " << c;
    }
  }
}

TEST(Pipeline, AggregateRejectsEmptyBlockList) {
  // The empty-model failure mode: compress_model fails fast before the
  // fan-out (an empty ReActNet is not even constructible), and the
  // reduction rejects an empty report list with the same message.
  bnn::ReActNetConfig empty = test::tiny_config(1);
  empty.blocks.clear();
  EXPECT_THROW((void)bnn::ReActNet(empty), CheckError);
  try {
    aggregate_block_reports({}, 1'000);
    FAIL() << "aggregate_block_reports({}) must throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("no blocks"), std::string::npos)
        << e.what();
  }
}

TEST(Pipeline, AggregateRejectsInconsistentStorageBreakdown) {
  // model_bits below the summed 3x3 bits used to underflow the unsigned
  // subtraction and report a nonsense ratio; now it names the problem.
  BlockReport block;
  block.uncompressed_bits = 1'000;
  block.encoding_bits = 800;
  block.clustering_bits = 700;
  block.encoding_ratio = 1.25;
  block.clustering_ratio = 1.43;
  try {
    aggregate_block_reports({block}, /*model_bits=*/999);
    FAIL() << "inconsistent storage breakdown must throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("inconsistent storage breakdown"),
              std::string::npos)
        << e.what();
  }
}

TEST(Pipeline, AggregateRejectsZeroCompressedStorage) {
  // A degenerate breakdown where the whole model is 3x3 storage and the
  // clustered streams are zero bits would divide by zero (inf ratio).
  BlockReport block;
  block.uncompressed_bits = 1'000;
  block.encoding_bits = 0;
  block.clustering_bits = 0;
  try {
    aggregate_block_reports({block}, /*model_bits=*/1'000);
    FAIL() << "zero compressed storage must throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("zero bits"), std::string::npos)
        << e.what();
  }
}

TEST(Pipeline, AggregateAcceptsConsistentBreakdown) {
  // Sanity: the hardened reduction still produces the plain ratios.
  BlockReport block;
  block.uncompressed_bits = 1'000;
  block.encoding_bits = 800;
  block.clustering_bits = 500;
  block.decode_table_bits = 100;
  block.encoding_ratio = 1.25;
  block.clustering_ratio = 2.0;
  const ModelReport report = aggregate_block_reports({block}, 2'000);
  EXPECT_EQ(report.conv3x3_bits, 1'000u);
  EXPECT_EQ(report.conv3x3_clustering_bits, 500u);
  EXPECT_DOUBLE_EQ(report.model_ratio, 2'000.0 / 1'500.0);
  EXPECT_DOUBLE_EQ(report.model_ratio_with_tables, 2'000.0 / 1'600.0);
}

TEST(Pipeline, CustomTreeConfigPropagates) {
  const bnn::ReActNet model(mid_config(15));
  const ModelCompressor fixed(GroupedTreeConfig::fixed9(), {});
  const ModelReport report = fixed.analyze(model);
  for (const auto& block : report.blocks) {
    EXPECT_NEAR(block.encoding_ratio, 1.0, 1e-9);
    EXPECT_EQ(block.node_shares_encoding.size(), 1u);
  }
}

}  // namespace
}  // namespace bkc::compress
