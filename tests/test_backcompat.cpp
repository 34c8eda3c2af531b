// Container back-compat: the PERMANENT v1 fixture
// (tests/golden/reactnet_tiny_v1.bkcm, written by the last v1 build
// with the same tiny/seed-42 recipe as the current golden) must keep
// parsing through MappedBkcm::open into the artifacts a from-scratch
// compression emits, and loading bit-identically to it. Plus the
// forward contract: an engine round-trips through a v2 container, and
// every block parsed from either golden is a complete artifact.
//
// The v1 fixture is never regenerated; if this suite fails the READER
// broke, not the fixture (the CTest 'backcompat' label runs it in CI).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <string>
#include <vector>

#include "compress/block_codec.h"
#include "compress/serialize.h"
#include "core/engine.h"
#include "support/support.h"
#include "util/binary_io.h"

namespace bkc {
namespace {

using compress::BkcmInfo;
using compress::MappedBkcm;

const std::string& v1_path() {
  static const std::string path =
      test::golden_path("reactnet_tiny_v1.bkcm");
  return path;
}

/// Every block MappedBkcm::open parses from `path` owns its stream: it
/// decodes, on its own, to the kernel the loaded engine installs, and
/// passes bkcm_tool verify's artifact cross-checks.
void expect_parsed_blocks_complete(const std::string& path) {
  const MappedBkcm mapped = MappedBkcm::open(path);
  const Engine loaded = Engine::load_compressed(path);
  ASSERT_EQ(mapped.blocks().size(), loaded.model().num_blocks());
  for (std::size_t b = 0; b < mapped.blocks().size(); ++b) {
    const compress::KernelCompression& artifact = mapped.blocks()[b].artifact;
    EXPECT_TRUE(compress::decode_block(artifact) ==
                loaded.model().block(b).conv3x3().kernel())
        << path << ", block " << b;
    EXPECT_NO_THROW(compress::verify_artifact(artifact, b))
        << path << ", block " << b;
  }
}

/// The engine every load must reproduce: the golden recipe (tiny
/// config, seed 42, default options), compressed fresh.
const Engine& reference_engine() {
  static const Engine engine = [] {
    Engine fresh(test::tiny_config(/*seed=*/42));
    fresh.compress();
    return fresh;
  }();
  return engine;
}

void expect_engine_matches_reference(const Engine& loaded,
                                     const std::string& what) {
  const Engine& reference = reference_engine();
  ASSERT_EQ(loaded.model().num_blocks(), reference.model().num_blocks())
      << what;
  for (std::size_t b = 0; b < reference.model().num_blocks(); ++b) {
    EXPECT_TRUE(loaded.model().block(b).conv3x3().kernel() ==
                reference.model().block(b).conv3x3().kernel())
        << what << ": kernel of block " << b;
  }
  const auto& loaded_report = loaded.report();
  const auto& reference_report = reference.report();
  ASSERT_EQ(loaded_report.blocks.size(), reference_report.blocks.size());
  EXPECT_EQ(loaded_report.conv3x3_clustering_bits,
            reference_report.conv3x3_clustering_bits)
      << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded_report.model_ratio),
            std::bit_cast<std::uint64_t>(reference_report.model_ratio))
      << what;
  EXPECT_EQ(
      std::bit_cast<std::uint64_t>(loaded_report.mean_clustering_ratio),
      std::bit_cast<std::uint64_t>(reference_report.mean_clustering_ratio))
      << what;

  // Classification from the loaded kernels is bit-identical too.
  bnn::WeightGenerator gen(5);
  const Tensor image =
      gen.sample_activation(reference.model().input_shape());
  const Tensor expected = reference.classify(image);
  const Tensor scores = loaded.classify(image);
  ASSERT_EQ(scores.data().size(), expected.data().size());
  for (std::size_t v = 0; v < scores.data().size(); ++v) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(scores.data()[v]),
              std::bit_cast<std::uint32_t>(expected.data()[v]))
        << what << ": score " << v;
  }
}

TEST(BackCompatV1, FixtureIsAVersion1Container) {
  const std::vector<std::uint8_t> file = read_file_bytes(v1_path());
  const BkcmInfo info = compress::inspect_bkcm(file);
  EXPECT_EQ(info.version, 1u);
  ASSERT_EQ(info.sections.size(), 3u);
  EXPECT_EQ(info.sections[0].name, "CONF");
  EXPECT_EQ(info.sections[1].name, "REPT");
  EXPECT_EQ(info.sections[2].name, "BLKS");
}

TEST(BackCompatV1, MappedParserMatchesReferenceArtifacts) {
  // MappedBkcm (the parser every engine load goes through) must restore
  // the v1 fixture artifact for artifact as the reference compression
  // emits it, and the reference streams must decode to the kernels the
  // fixture loads into.
  const MappedBkcm mapped = MappedBkcm::open(v1_path());
  const Engine& reference = reference_engine();
  const Engine loaded = Engine::load_compressed(v1_path());
  EXPECT_EQ(mapped.info().version, 1u);
  EXPECT_EQ(mapped.clustering(), reference.options().clustering);
  EXPECT_EQ(mapped.model_config().seed, reference.model().config().seed);
  const std::vector<compress::KernelCompression>& streams =
      reference.block_streams();
  ASSERT_EQ(mapped.blocks().size(), streams.size());
  for (std::size_t b = 0; b < streams.size(); ++b) {
    const MappedBkcm::Block& block = mapped.blocks()[b];
    const compress::KernelCompression& stream = streams[b];
    EXPECT_EQ(block.artifact.compressed.stream_bits,
              stream.compressed.stream_bits)
        << "block " << b;
    EXPECT_TRUE(std::equal(block.stream.begin(), block.stream.end(),
                           stream.compressed.stream.begin(),
                           stream.compressed.stream.end()))
        << "block " << b;
    EXPECT_EQ(block.artifact.code_lengths, stream.code_lengths)
        << "block " << b;
    EXPECT_TRUE(compress::decode_block(stream) ==
                loaded.model().block(b).conv3x3().kernel())
        << "block " << b;
  }
}

TEST(BackCompatV1, MappedLoadIsBitIdenticalAtEveryThreadCount) {
  for (const int threads : {1, 2, 4, 7}) {
    const Engine loaded = Engine::load_compressed(v1_path(), threads);
    EXPECT_TRUE(loaded.verify_streams(threads));
    expect_engine_matches_reference(
        loaded, "threads " + std::to_string(threads));
  }
}

TEST(BackCompatV1, ParsedBlocksAreCompleteArtifacts) {
  expect_parsed_blocks_complete(v1_path());
}

TEST(BackCompatV1, RewritingTheFixtureUpgradesItToV2Unchanged) {
  // Load the v1 fixture and write it back out: the result is a v2
  // container whose artifacts survive another round trip bit-exactly.
  const Engine loaded = Engine::load_compressed(v1_path());
  const std::string path = ::testing::TempDir() + "/bkc_v1_upgraded.bkcm";
  loaded.save_compressed(path);
  const BkcmInfo info =
      compress::inspect_bkcm(read_file_bytes(path));
  EXPECT_EQ(info.version, compress::kBkcmVersion);
  const Engine upgraded = Engine::load_compressed(path);
  expect_engine_matches_reference(upgraded, "v1 fixture upgraded to v2");
  std::remove(path.c_str());
}

// ---- Forward contract: an engine round-trips through v2 ----

TEST(BackCompatV2, EngineRoundTripsThroughAV2Container) {
  const std::string path = ::testing::TempDir() + "/bkc_codec_v2.bkcm";
  Engine source(test::tiny_config(61));
  source.compress(2);
  EXPECT_TRUE(source.verify_streams(2));
  source.save_compressed(path);

  // Every parsed block carries the source's stream bytes; the engine
  // load installs the source kernels.
  const MappedBkcm mapped = MappedBkcm::open(path);
  EXPECT_EQ(mapped.info().version, compress::kBkcmVersion);
  const Engine loaded = Engine::load_compressed(path, 2);
  EXPECT_TRUE(loaded.verify_streams(2));
  ASSERT_EQ(mapped.blocks().size(), source.model().num_blocks());
  ASSERT_EQ(loaded.model().num_blocks(), source.model().num_blocks());
  for (std::size_t b = 0; b < source.model().num_blocks(); ++b) {
    const MappedBkcm::Block& block = mapped.blocks()[b];
    const std::vector<std::uint8_t>& bytes =
        source.block_streams()[b].compressed.stream;
    EXPECT_TRUE(std::equal(block.stream.begin(), block.stream.end(),
                           bytes.begin(), bytes.end()))
        << "block " << b << " (parsed)";
    EXPECT_TRUE(loaded.model().block(b).conv3x3().kernel() ==
                source.model().block(b).conv3x3().kernel())
        << "block " << b << " (loaded)";
  }
  std::remove(path.c_str());
}

TEST(BackCompatV2, ParsedBlocksAreCompleteArtifacts) {
  if (test::update_goldens()) GTEST_SKIP() << "golden being regenerated";
  expect_parsed_blocks_complete(test::golden_path("reactnet_tiny.bkcm"));
}

}  // namespace
}  // namespace bkc
