// Unit tests for compress/serialize.h — the BKCM container format.
//
// Three layers of lock-down:
//   1. field-for-field round trips of every serialized struct (doubles
//      compared by bit pattern, so a report can never drift in transit),
//   2. whole-model save -> load -> verify: Engine::load_compressed must
//      reconstruct installed kernels, report and classification outputs
//      bit-identical to the engine that wrote the file, at thread
//      counts 1/2/4/7,
//   3. a checked-in golden container (tests/golden/reactnet_tiny.bkcm)
//      that today's writer must reproduce byte-for-byte and today's
//      reader must load — pinning format v2 against accidental drift.
//      Regenerate deliberately with BKC_UPDATE_GOLDEN=1 (a format
//      change must also bump kBkcmVersion).

#include "compress/serialize.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bnn/kernel_sequences.h"
#include "bnn/weights.h"
#include "compress/block_codec.h"
#include "compress/instrumentation.h"
#include "core/engine.h"
#include "support/support.h"
#include "util/check.h"

namespace bkc::compress {
namespace {

// Doubles must survive serialization bit-exactly, not approximately.
#define EXPECT_BITS_EQ(a, b)                                   \
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a),                   \
            std::bit_cast<std::uint64_t>(b))

void expect_tables_equal(const FrequencyTable& a, const FrequencyTable& b) {
  EXPECT_EQ(a.counts(), b.counts());
  EXPECT_EQ(a.total(), b.total());
}

void expect_clustering_equal(const ClusteringResult& a,
                             const ClusteringResult& b) {
  for (int s = 0; s < bnn::kNumSequences; ++s) {
    EXPECT_EQ(a.remap(static_cast<SeqId>(s)),
              b.remap(static_cast<SeqId>(s)));
  }
  ASSERT_EQ(a.replacements().size(), b.replacements().size());
  for (std::size_t i = 0; i < a.replacements().size(); ++i) {
    EXPECT_EQ(a.replacements()[i].from, b.replacements()[i].from);
    EXPECT_EQ(a.replacements()[i].to, b.replacements()[i].to);
    EXPECT_EQ(a.replacements()[i].occurrences,
              b.replacements()[i].occurrences);
    EXPECT_EQ(a.replacements()[i].distance, b.replacements()[i].distance);
  }
  EXPECT_EQ(a.replaced_occurrences(), b.replaced_occurrences());
  EXPECT_EQ(a.flipped_weight_bits(), b.flipped_weight_bits());
  EXPECT_EQ(a.total_occurrences(), b.total_occurrences());
}

void expect_codecs_equal(const GroupedHuffmanCodec& a,
                         const GroupedHuffmanCodec& b) {
  ASSERT_EQ(a.config().index_bits, b.config().index_bits);
  for (int n = 0; n < a.config().num_nodes(); ++n) {
    ASSERT_EQ(a.node_occupancy(n), b.node_occupancy(n));
    const auto ta = a.uncompressed_table(n);
    const auto tb = b.uncompressed_table(n);
    EXPECT_TRUE(std::equal(ta.begin(), ta.end(), tb.begin()));
  }
  for (int s = 0; s < bnn::kNumSequences; ++s) {
    const auto id = static_cast<SeqId>(s);
    ASSERT_EQ(a.has_code(id), b.has_code(id));
    if (!a.has_code(id)) continue;
    EXPECT_EQ(a.node_of(id), b.node_of(id));
    EXPECT_EQ(a.index_of(id), b.index_of(id));
  }
}

void expect_block_reports_equal(const BlockReport& a, const BlockReport& b) {
  EXPECT_EQ(a.block_name, b.block_name);
  EXPECT_EQ(a.num_sequences, b.num_sequences);
  EXPECT_EQ(a.distinct_sequences, b.distinct_sequences);
  EXPECT_BITS_EQ(a.top16_share, b.top16_share);
  EXPECT_BITS_EQ(a.top64_share, b.top64_share);
  EXPECT_BITS_EQ(a.top256_share, b.top256_share);
  EXPECT_BITS_EQ(a.entropy_bits, b.entropy_bits);
  EXPECT_EQ(a.uncompressed_bits, b.uncompressed_bits);
  EXPECT_EQ(a.encoding_bits, b.encoding_bits);
  EXPECT_EQ(a.clustering_bits, b.clustering_bits);
  EXPECT_BITS_EQ(a.encoding_ratio, b.encoding_ratio);
  EXPECT_BITS_EQ(a.clustering_ratio, b.clustering_ratio);
  EXPECT_BITS_EQ(a.huffman_ratio, b.huffman_ratio);
  ASSERT_EQ(a.node_shares_encoding.size(), b.node_shares_encoding.size());
  for (std::size_t n = 0; n < a.node_shares_encoding.size(); ++n) {
    EXPECT_BITS_EQ(a.node_shares_encoding[n], b.node_shares_encoding[n]);
  }
  ASSERT_EQ(a.node_shares_clustering.size(),
            b.node_shares_clustering.size());
  for (std::size_t n = 0; n < a.node_shares_clustering.size(); ++n) {
    EXPECT_BITS_EQ(a.node_shares_clustering[n],
                   b.node_shares_clustering[n]);
  }
  EXPECT_BITS_EQ(a.flipped_bit_fraction, b.flipped_bit_fraction);
  EXPECT_EQ(a.replaced_sequences, b.replaced_sequences);
  EXPECT_EQ(a.decode_table_bits, b.decode_table_bits);
}

void expect_model_reports_equal(const ModelReport& a, const ModelReport& b) {
  ASSERT_EQ(a.blocks.size(), b.blocks.size());
  for (std::size_t i = 0; i < a.blocks.size(); ++i) {
    expect_block_reports_equal(a.blocks[i], b.blocks[i]);
  }
  EXPECT_EQ(a.model_bits, b.model_bits);
  EXPECT_EQ(a.conv3x3_bits, b.conv3x3_bits);
  EXPECT_EQ(a.conv3x3_encoding_bits, b.conv3x3_encoding_bits);
  EXPECT_EQ(a.conv3x3_clustering_bits, b.conv3x3_clustering_bits);
  EXPECT_EQ(a.decode_table_bits, b.decode_table_bits);
  EXPECT_BITS_EQ(a.mean_encoding_ratio, b.mean_encoding_ratio);
  EXPECT_BITS_EQ(a.mean_clustering_ratio, b.mean_clustering_ratio);
  EXPECT_BITS_EQ(a.model_ratio, b.model_ratio);
  EXPECT_BITS_EQ(a.model_ratio_with_tables, b.model_ratio_with_tables);
}

/// Write with write_x, read back with read_x, expect exhaustion.
template <typename T, typename WriteFn, typename ReadFn>
T round_trip(const T& value, WriteFn write, ReadFn read) {
  ByteWriter writer;
  write(writer, value);
  const auto bytes = writer.take();
  ByteReader reader(bytes, "round-trip");
  T out = read(reader);
  reader.expect_exhausted();
  return out;
}

TEST(Serialize, TreeConfigRoundTrip) {
  for (const GroupedTreeConfig& config :
       {GroupedTreeConfig::paper(), GroupedTreeConfig::fixed9(),
        GroupedTreeConfig{.index_bits = {0, 3, 16}}}) {
    const GroupedTreeConfig read =
        round_trip(config, write_tree_config, read_tree_config);
    EXPECT_EQ(read.index_bits, config.index_bits);
  }
}

TEST(Serialize, ClusteringConfigRoundTrip) {
  const ClusteringConfig config{
      .most_common = 48, .least_common = 300, .max_distance = 2};
  const ClusteringConfig read =
      round_trip(config, write_clustering_config, read_clustering_config);
  EXPECT_EQ(read.most_common, config.most_common);
  EXPECT_EQ(read.least_common, config.least_common);
  EXPECT_EQ(read.max_distance, config.max_distance);
}

TEST(Serialize, ReActNetConfigRoundTrip) {
  bnn::ReActNetConfig config = bnn::tiny_reactnet_config(/*seed=*/777);
  config.calibrated_weights = false;
  config.num_classes = 17;
  const bnn::ReActNetConfig read =
      round_trip(config, write_reactnet_config, read_reactnet_config);
  EXPECT_EQ(read.input_channels, config.input_channels);
  EXPECT_EQ(read.input_size, config.input_size);
  EXPECT_EQ(read.stem_channels, config.stem_channels);
  EXPECT_EQ(read.stem_stride, config.stem_stride);
  EXPECT_EQ(read.num_classes, config.num_classes);
  EXPECT_EQ(read.seed, config.seed);
  EXPECT_EQ(read.calibrated_weights, config.calibrated_weights);
  ASSERT_EQ(read.blocks.size(), config.blocks.size());
  for (std::size_t b = 0; b < config.blocks.size(); ++b) {
    EXPECT_EQ(read.blocks[b].in_channels, config.blocks[b].in_channels);
    EXPECT_EQ(read.blocks[b].out_channels, config.blocks[b].out_channels);
    EXPECT_EQ(read.blocks[b].stride, config.blocks[b].stride);
  }
}

TEST(Serialize, ReActNetConfigRejectsImplausibleSizes) {
  // A CRC-valid but hostile config must not be able to drive huge
  // allocations when the loader rebuilds the model: total size across
  // blocks, stem and classifier products are all bounded on read.
  bnn::ReActNetConfig config = bnn::tiny_reactnet_config(/*seed=*/1);
  config.blocks.assign(
      64, {.in_channels = 8192, .out_channels = 8192, .stride = 1});
  ByteWriter writer;
  write_reactnet_config(writer, config);
  const auto bytes = writer.take();
  ByteReader reader(bytes, "test");
  try {
    read_reactnet_config(reader);
    FAIL() << "oversized block schedule must throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("implausible"), std::string::npos)
        << e.what();
  }
}

TEST(Serialize, ClusteringResultRejectsWrappingOccurrenceCounts) {
  // Occurrence counts that would wrap the uint64 accumulators must be
  // rejected replacement-by-replacement, not slip through a single
  // end-of-loop comparison after wrapping.
  ByteWriter writer;
  writer.write_varint(2);
  for (std::uint64_t from : {0ull, 2ull}) {
    writer.write_varint(from);
    writer.write_varint(from + 1);      // to
    writer.write_varint(1ULL << 63);    // occurrences
    writer.write_varint(1);             // distance
  }
  writer.write_varint(0);  // total_occurrences
  const auto bytes = writer.take();
  ByteReader reader(bytes, "test");
  EXPECT_THROW(read_clustering_result(reader), CheckError);
}

TEST(Serialize, FrequencyTableRoundTrip) {
  const auto kernel = test::calibrated_kernel(32, 32, /*seed=*/5);
  const FrequencyTable table = FrequencyTable::from_kernel(kernel);
  expect_tables_equal(
      round_trip(table, write_frequency_table, read_frequency_table), table);
  // Empty and single-entry tables round-trip too.
  expect_tables_equal(round_trip(FrequencyTable{}, write_frequency_table,
                                 read_frequency_table),
                      FrequencyTable{});
  FrequencyTable single;
  single.add(511, 3);
  expect_tables_equal(
      round_trip(single, write_frequency_table, read_frequency_table),
      single);
}

TEST(Serialize, ClusteringResultRoundTrip) {
  const auto kernel = test::calibrated_kernel(64, 64, /*seed=*/9);
  const FrequencyTable table = FrequencyTable::from_kernel(kernel);
  const ClusteringResult result = cluster_sequences(table);
  ASSERT_FALSE(result.replacements().empty());
  expect_clustering_equal(
      round_trip(result, write_clustering_result, read_clustering_result),
      result);
  // The identity result (clustering disabled) round-trips too.
  expect_clustering_equal(round_trip(ClusteringResult{},
                                     write_clustering_result,
                                     read_clustering_result),
                          ClusteringResult{});
}

TEST(Serialize, CodecRoundTripEncodesIdentically) {
  const auto kernel = test::calibrated_kernel(32, 32, /*seed=*/11);
  const FrequencyTable table = FrequencyTable::from_kernel(kernel);
  const GroupedHuffmanCodec codec(table);
  const GroupedHuffmanCodec read =
      round_trip(codec, write_codec, read_codec);
  expect_codecs_equal(read, codec);
  // The restored codec must reproduce the original stream bit-for-bit
  // and decode it back (the hardware-decoder contract).
  const std::vector<SeqId> sequences = bnn::extract_sequences(kernel);
  std::size_t original_bits = 0;
  std::size_t again_bits = 0;
  const std::vector<std::uint8_t> original =
      codec.encode(sequences, original_bits);
  const std::vector<std::uint8_t> again = read.encode(sequences, again_bits);
  EXPECT_EQ(original, again);
  EXPECT_EQ(original_bits, again_bits);
  EXPECT_EQ(read.decode(again, again_bits, sequences.size()), sequences);
}

TEST(Serialize, CompressedKernelRoundTrip) {
  const auto kernel = test::calibrated_kernel(16, 32, /*seed=*/13);
  const CompressedKernel compressed =
      test::encode_block(kernel).encoding.compressed;
  ByteWriter writer;
  write_compressed_kernel(writer, compressed);
  const std::vector<std::uint8_t> bytes = writer.take();
  ByteReader reader(bytes, "round-trip");
  const CompressedKernel read = read_compressed_kernel(reader);
  reader.expect_exhausted();
  EXPECT_EQ(read.out_channels, compressed.out_channels);
  EXPECT_EQ(read.in_channels, compressed.in_channels);
  EXPECT_EQ(read.stream_bits, compressed.stream_bits);
  EXPECT_EQ(read.stream, compressed.stream);
}

TEST(Serialize, KernelCompressionRoundTripAndDecodeReconstruction) {
  const auto kernel = test::calibrated_kernel(32, 32, /*seed=*/17);
  const CompressedBlock block = test::encode_block(kernel);
  for (bool clustering : {true, false}) {
    const KernelCompression& stream =
        clustering ? block.clustered : block.encoding;
    ByteWriter writer;
    write_block(writer, stream);
    const std::vector<std::uint8_t> bytes = writer.take();
    ByteReader reader(bytes, "round-trip");
    const KernelCompression read = read_block(reader);
    reader.expect_exhausted();
    expect_tables_equal(read.frequencies, stream.frequencies);
    expect_clustering_equal(read.clustering, stream.clustering);
    expect_tables_equal(read.coded_frequencies, stream.coded_frequencies);
    expect_codecs_equal(read.codec, stream.codec);
    EXPECT_EQ(read.compressed.stream, stream.compressed.stream);
    EXPECT_EQ(read.compressed.stream_bits, stream.compressed.stream_bits);
    // The kernel is not stored: decoding the stream must reconstruct
    // the one the column encodes exactly.
    EXPECT_TRUE(decode_block(read) ==
                (clustering ? block.clustered_kernel : kernel));
  }
}

TEST(Serialize, ModelReportRoundTripIsBitExact) {
  Engine engine(test::tiny_config(21));
  const ModelReport& report = engine.compress();
  expect_model_reports_equal(
      round_trip(report, write_model_report, read_model_report), report);
}

TEST(Serialize, ContainerRoundTrip) {
  Engine engine(test::tiny_config(23));
  const ModelReport& report = engine.compress();
  const auto write = [&] {
    return write_bkcm(engine.options().clustering, engine.options().tree,
                      engine.options().clustering_config,
                      engine.model().config(), report,
                      engine.block_streams());
  };
  const std::vector<std::uint8_t> file = write();
  // Deterministic: the same parts always serialize to the same bytes.
  EXPECT_EQ(write(), file);

  const BkcmInfo info = inspect_bkcm(file);
  EXPECT_EQ(info.version, kBkcmVersion);
  EXPECT_EQ(info.flags & kBkcmFlagClustering, kBkcmFlagClustering);
  ASSERT_EQ(info.sections.size(), 4u);
  EXPECT_EQ(info.sections[0].name, "CONF");
  EXPECT_EQ(info.sections[1].name, "REPT");
  EXPECT_EQ(info.sections[2].name, "BLKS");
  EXPECT_EQ(info.sections[3].name, "CDCS");

  // Parse the image back through the one container parser.
  const std::string path = ::testing::TempDir() + "/bkc_round_trip.bkcm";
  write_file_bytes(path, file);
  const MappedBkcm read = MappedBkcm::open(path);
  std::remove(path.c_str());
  EXPECT_EQ(read.info().sections.size(), info.sections.size());
  EXPECT_EQ(read.clustering(), engine.options().clustering);
  EXPECT_EQ(read.tree().index_bits, engine.options().tree.index_bits);
  EXPECT_EQ(read.model_config().seed, engine.model().config().seed);
  expect_model_reports_equal(read.report(), report);
  const std::vector<KernelCompression>& streams = engine.block_streams();
  ASSERT_EQ(read.blocks().size(), streams.size());
  for (std::size_t b = 0; b < streams.size(); ++b) {
    EXPECT_EQ(read.blocks()[b].artifact.compressed.stream,
              streams[b].compressed.stream)
        << "block " << b;
  }
}

class SerializeEngineTest : public ::testing::Test {
 protected:
  static std::string temp_path(const std::string& name) {
    return ::testing::TempDir() + "/" + name;
  }
};

TEST_F(SerializeEngineTest, SaveLoadVerifyAndBitIdenticalState) {
  const std::string path = temp_path("roundtrip_clustered.bkcm");
  Engine source(test::tiny_config(27));
  source.compress(2);
  source.save_compressed(path);

  const Engine loaded = Engine::load_compressed(path, 2);
  EXPECT_TRUE(loaded.is_compressed());
  EXPECT_TRUE(loaded.verify_streams(2));
  // Installed kernels bit-identical to the saved engine's.
  ASSERT_EQ(loaded.model().num_blocks(), source.model().num_blocks());
  for (std::size_t b = 0; b < source.model().num_blocks(); ++b) {
    EXPECT_TRUE(loaded.model().block(b).conv3x3().kernel() ==
                source.model().block(b).conv3x3().kernel())
        << "block " << b;
  }
  expect_model_reports_equal(loaded.report(), source.report());
  // The engine options travelled too.
  EXPECT_EQ(loaded.options().clustering, source.options().clustering);
  EXPECT_EQ(loaded.options().tree.index_bits,
            source.options().tree.index_bits);
  std::remove(path.c_str());
}

TEST_F(SerializeEngineTest, NoClusteringContainerRestoresExactModel) {
  const std::string path = temp_path("roundtrip_plain.bkcm");
  Engine source(test::tiny_config(29), test::no_clustering());
  source.compress();
  source.save_compressed(path);

  const Engine loaded = Engine::load_compressed(path);
  EXPECT_FALSE(loaded.options().clustering);
  EXPECT_TRUE(loaded.verify_streams());
  for (std::size_t b = 0; b < source.model().num_blocks(); ++b) {
    EXPECT_TRUE(loaded.model().block(b).conv3x3().kernel() ==
                source.model().block(b).conv3x3().kernel());
  }
  std::remove(path.c_str());
}

TEST_F(SerializeEngineTest, LoadedEngineClassifiesBitIdenticallyAcrossThreads) {
  const std::string path = temp_path("roundtrip_classify.bkcm");
  Engine source(test::tiny_config(31));
  source.compress(2);
  source.save_compressed(path);

  bnn::WeightGenerator gen(99);
  std::vector<Tensor> images;
  for (int i = 0; i < 3; ++i) {
    images.push_back(gen.sample_activation(source.model().input_shape()));
  }
  const std::vector<Tensor> expected = source.classify_batch(images, 1);

  for (int threads : {1, 2, 4, 7}) {
    const Engine loaded = Engine::load_compressed(path, threads);
    const std::vector<Tensor> scores =
        loaded.classify_batch(images, threads);
    ASSERT_EQ(scores.size(), expected.size()) << "threads " << threads;
    for (std::size_t i = 0; i < scores.size(); ++i) {
      ASSERT_EQ(scores[i].data().size(), expected[i].data().size());
      for (std::size_t v = 0; v < scores[i].data().size(); ++v) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(scores[i].data()[v]),
                  std::bit_cast<std::uint32_t>(expected[i].data()[v]))
            << "threads " << threads << " image " << i;
      }
    }
  }
  std::remove(path.c_str());
}

TEST_F(SerializeEngineTest, SaveRequiresCompress) {
  Engine engine(test::tiny_config(33));
  try {
    engine.save_compressed(temp_path("never_written.bkcm"));
    FAIL() << "save_compressed before compress() must throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("compress()"), std::string::npos);
  }
}

// ---- Golden container: pins format v2 byte-for-byte ----
// (tests/test_backcompat.cpp pins that the PERMANENT v1 fixture,
// tests/golden/reactnet_tiny_v1.bkcm, still loads bit-identically.)

std::vector<std::uint8_t> golden_container_bytes() {
  // Fixed seed + tiny config + default options: the exact recipe is
  // part of the format contract (regenerate with BKC_UPDATE_GOLDEN=1).
  // Note: the REPT doubles come through libm (log2 in entropy, log/sqrt
  // in weight calibration), so the byte-for-byte pin assumes the
  // reference toolchain (glibc/x86-64, the CI image); a 1-ulp libm
  // difference on another platform is golden drift, not format drift —
  // regenerate there instead of bumping the version.
  Engine engine(test::tiny_config(/*seed=*/42));
  engine.compress();
  return write_bkcm(engine.options().clustering, engine.options().tree,
                    engine.options().clustering_config,
                    engine.model().config(), engine.report(),
                    engine.block_streams());
}

TEST(SerializeGolden, WriterReproducesTheCheckedInContainer) {
  const std::string path = test::golden_path("reactnet_tiny.bkcm");
  const std::vector<std::uint8_t> current = golden_container_bytes();
  if (test::update_goldens()) {
    write_file_bytes(path, current);
    return;
  }
  const std::vector<std::uint8_t> golden = read_file_bytes(path);
  ASSERT_EQ(current.size(), golden.size())
      << "BKCM v2 output size drifted — if intentional, bump "
         "kBkcmVersion and regenerate with BKC_UPDATE_GOLDEN=1";
  for (std::size_t i = 0; i < golden.size(); ++i) {
    ASSERT_EQ(current[i], golden[i])
        << "BKCM v2 byte drift at offset " << i
        << " — if intentional, bump kBkcmVersion and regenerate with "
           "BKC_UPDATE_GOLDEN=1";
  }
}

TEST(SerializeGolden, ReaderLoadsTheCheckedInContainer) {
  if (test::update_goldens()) GTEST_SKIP() << "golden being regenerated";
  const std::string path = test::golden_path("reactnet_tiny.bkcm");
  const Engine loaded = Engine::load_compressed(path, 2);
  EXPECT_TRUE(loaded.verify_streams(2));
  // The loaded engine must equal a from-scratch compression of the same
  // seed — the container is a faithful snapshot, not just self-consistent.
  Engine fresh(test::tiny_config(/*seed=*/42));
  fresh.compress();
  for (std::size_t b = 0; b < fresh.model().num_blocks(); ++b) {
    EXPECT_TRUE(loaded.model().block(b).conv3x3().kernel() ==
                fresh.model().block(b).conv3x3().kernel())
        << "block " << b;
  }
  expect_model_reports_equal(loaded.report(), fresh.report());
}

// ---- Parsed container (MappedBkcm) ----

// Cycle-level equality lives in hwsim::cycles_identical (also used by
// the bench/speedup self-check); nothing serialize-specific to add.

TEST(SerializeMapped, MappedParserMatchesSourceEngine) {
  const std::string path =
      ::testing::TempDir() + "/bkc_mapped_vs_source.bkcm";
  Engine source(test::tiny_config(51));
  source.compress(2);
  source.save_compressed(path);

  // MappedBkcm::open is Engine::load_compressed's parser. Every block
  // must carry the artifacts the source engine wrote, and the source's
  // streams must decode to the kernels the loaded engine installed.
  const MappedBkcm mapped = MappedBkcm::open(path);
  const Engine loaded = Engine::load_compressed(path, 2);
  EXPECT_EQ(mapped.clustering(), source.options().clustering);
  EXPECT_EQ(mapped.model_config().seed, source.model().config().seed);
  expect_model_reports_equal(mapped.report(), source.report());
  const std::vector<KernelCompression>& streams = source.block_streams();
  ASSERT_EQ(mapped.blocks().size(), streams.size());
  ASSERT_EQ(loaded.model().num_blocks(), streams.size());
  for (std::size_t b = 0; b < streams.size(); ++b) {
    const MappedBkcm::Block& block = mapped.blocks()[b];
    const KernelCompression& stream = streams[b];
    EXPECT_EQ(block.artifact.compressed.stream_bits,
              stream.compressed.stream_bits);
    EXPECT_EQ(block.artifact.compressed.stream, stream.compressed.stream);
    EXPECT_EQ(block.artifact.code_lengths, stream.code_lengths);
    expect_codecs_equal(block.artifact.codec, stream.codec);
    expect_clustering_equal(block.artifact.clustering, stream.clustering);
    const bnn::PackedKernel& installed =
        loaded.model().block(b).conv3x3().kernel();
    EXPECT_TRUE(decode_block(stream) == installed) << "block " << b;
    EXPECT_TRUE(source.model().block(b).conv3x3().kernel() == installed)
        << "block " << b;
  }
  std::remove(path.c_str());
}

TEST(SerializeMapped, OpenRestoresTheWrittenBlocksAndDecodesNothing) {
  if (test::update_goldens()) GTEST_SKIP() << "golden being regenerated";
  const std::string path = test::golden_path("reactnet_tiny.bkcm");

  const PipelineCounters before = pipeline_counters();
  const MappedBkcm mapped = MappedBkcm::open(path);
  const PipelineCounters delta = pipeline_counters().delta_since(before);
  // Opening restores decode tables and scans prefixes — none of which
  // is pipeline work (and no kernel decode happens at all).
  EXPECT_EQ(delta.frequency_counts, 0u);
  EXPECT_EQ(delta.cluster_sequences_calls, 0u);
  EXPECT_EQ(delta.grouped_codec_builds, 0u);

  // Parsed sections agree with a fresh compression of the golden recipe
  // (tiny config, seed 42, default options).
  Engine fresh(test::tiny_config(/*seed=*/42));
  fresh.compress();
  EXPECT_EQ(mapped.clustering(), fresh.options().clustering);
  EXPECT_EQ(mapped.tree().index_bits, fresh.options().tree.index_bits);
  EXPECT_EQ(mapped.model_config().seed, fresh.model().config().seed);
  expect_model_reports_equal(mapped.report(), fresh.report());

  // Every block's stream matches the written bytes; the scanned code
  // lengths match the ones the encoder emitted.
  const std::vector<KernelCompression>& streams = fresh.block_streams();
  ASSERT_EQ(mapped.blocks().size(), streams.size());
  for (std::size_t b = 0; b < mapped.blocks().size(); ++b) {
    const MappedBkcm::Block& block = mapped.blocks()[b];
    const KernelCompression& stream = streams[b];
    EXPECT_EQ(block.artifact.compressed.stream_bits,
              stream.compressed.stream_bits);
    EXPECT_EQ(block.artifact.compressed.stream, stream.compressed.stream);
    // `stream` spans the block's own bytes.
    EXPECT_EQ(block.stream.data(), block.artifact.compressed.stream.data());
    EXPECT_EQ(block.stream.size(), block.artifact.compressed.stream.size());
    EXPECT_EQ(block.artifact.code_lengths, stream.code_lengths);
    expect_codecs_equal(block.artifact.codec, stream.codec);
    expect_clustering_equal(block.artifact.clustering, stream.clustering);
  }
}

TEST(SerializeMapped, ContainerBackedSpeedupMatchesEngineBacked) {
  if (test::update_goldens()) GTEST_SKIP() << "golden being regenerated";
  const std::string path = test::golden_path("reactnet_tiny.bkcm");

  // Engine-backed: load the container, simulate from the engine's
  // artifact view.
  const Engine engine = Engine::load_compressed(path, 2);
  const hwsim::SpeedupReport engine_report = engine.simulate_speedup();

  // Container-backed: parse the file, feed hwsim the parsed view — no
  // engine, no kernel decode, no weight sampling, no pipeline work.
  const MappedBkcm mapped = MappedBkcm::open(path);
  const PipelineCounters before = pipeline_counters();
  const hwsim::SpeedupReport mapped_report = hwsim::compare_model(
      mapped.view(bnn::op_records_for(mapped.model_config())));
  const PipelineCounters delta = pipeline_counters().delta_since(before);
  EXPECT_EQ(delta.frequency_counts, 0u);
  EXPECT_EQ(delta.cluster_sequences_calls, 0u);
  EXPECT_EQ(delta.grouped_codec_builds, 0u);

  EXPECT_TRUE(hwsim::cycles_identical(mapped_report, engine_report));
}

TEST(SerializeMapped, ViewBorrowsTheParsedBlocks) {
  const std::string path = ::testing::TempDir() + "/bkc_mapped_spans.bkcm";
  Engine source(test::tiny_config(53));
  source.compress();
  source.save_compressed(path);

  const MappedBkcm mapped = MappedBkcm::open(path);
  const CompressedModelView view =
      mapped.view(bnn::op_records_for(mapped.model_config()));
  ASSERT_EQ(view.blocks.size(), mapped.blocks().size());
  for (std::size_t b = 0; b < view.blocks.size(); ++b) {
    const KernelCompression& block = view.blocks[b];
    // The view refers to the parsed artifacts; it copies none of them.
    EXPECT_EQ(&block, &mapped.blocks()[b].artifact);
    EXPECT_EQ(block.code_lengths.size(), block.compressed.num_sequences());
  }
  // An op layout from a different configuration must be rejected.
  EXPECT_THROW(mapped.view(bnn::op_records_for(test::mid_config(53))),
               CheckError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bkc::compress
