// End-to-end tests of the public Engine facade.

#include "core/engine.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>

#include "compress/block_codec.h"
#include "compress/instrumentation.h"
#include "support/support.h"
#include "util/check.h"

namespace bkc {
namespace {

using test::no_clustering;

TEST(Engine, ClassifyRejectsNonFiniteImages) {
  // A NaN or inf pixel is a CheckError from the stem's quantization,
  // never a NaN cast to int8 (undefined behaviour).
  const Engine engine(test::tiny_config(11));
  const FeatureShape shape = engine.model().input_shape();
  for (float bad : {std::numeric_limits<float>::quiet_NaN(),
                    std::numeric_limits<float>::infinity()}) {
    Tensor image(shape);
    image.data()[image.data().size() / 2] = bad;
    for (int threads : {1, 4}) {
      EXPECT_THROW(engine.classify(image, threads), CheckError);
    }
  }
}

TEST(Engine, CompressReportsAndVerifies) {
  Engine engine(test::tiny_config(3));
  EXPECT_FALSE(engine.is_compressed());
  const auto& report = engine.compress();
  EXPECT_TRUE(engine.is_compressed());
  EXPECT_EQ(report.blocks.size(), 13u);
  EXPECT_TRUE(engine.verify_streams());
  EXPECT_EQ(engine.block_streams().size(), 13u);
}

// Every installed 3x3 kernel is exactly what its deployed stream decodes
// to, whether it got there through compress() (the clustered kernel the
// pass built, or the untouched input) or through load_compressed() (the
// decode_block result) — for every codec, both modes and two thread
// counts.
void expect_installed_kernels_decode_from_streams(const Engine& engine,
                                                  const std::string& what) {
  ASSERT_EQ(engine.block_streams().size(), engine.model().num_blocks());
  for (std::size_t b = 0; b < engine.model().num_blocks(); ++b) {
    EXPECT_TRUE(engine.model().block(b).conv3x3().kernel() ==
                compress::decode_block(engine.block_streams()[b]))
        << what << " block " << b;
  }
}

TEST(Engine, InstalledKernelsAreTheDecodedStreams) {
  const std::string path =
      ::testing::TempDir() + "/bkc_engine_installed.bkcm";
  for (const bool clustering : {true, false}) {
    for (const int threads : {1, 4}) {
      const std::string what = "clustering " + std::to_string(clustering) +
                               " threads " + std::to_string(threads);
      Engine engine(test::tiny_config(41),
                    EngineOptions{.clustering = clustering});
      engine.compress(threads);
      expect_installed_kernels_decode_from_streams(engine,
                                                   what + " compress");
      engine.save_compressed(path);
      const Engine loaded = Engine::load_compressed(path, threads);
      expect_installed_kernels_decode_from_streams(loaded, what + " load");
      for (std::size_t b = 0; b < engine.model().num_blocks(); ++b) {
        EXPECT_TRUE(loaded.model().block(b).conv3x3().kernel() ==
                    engine.model().block(b).conv3x3().kernel())
            << what << " block " << b;
      }
    }
  }
  std::remove(path.c_str());
}

TEST(Engine, RejectsAnyCodecIdButGroupedHuffman) {
  for (const std::uint32_t codec_id : {0u, 2u, 99u}) {
    EXPECT_THROW(Engine(test::tiny_config(41),
                        EngineOptions{.codec_id = codec_id}),
                 CheckError)
        << "codec id " << codec_id;
  }
}

TEST(Engine, CompressIsIdempotent) {
  Engine engine(test::tiny_config(5));
  engine.compress();
  const auto kernel = engine.model().block(0).conv3x3().kernel();
  engine.compress();  // second call must not re-cluster
  EXPECT_TRUE(engine.model().block(0).conv3x3().kernel() == kernel);
}

TEST(Engine, CompressRunsOnePipelinePassPerBlock) {
  // Engine::compress is a single compress_model pass: one frequency
  // count and one clustering search per block, two grouped-codec builds
  // (encoding + clustering columns) — and nothing else. Before the
  // refactor the same call ran 3 / 2 / 3 per block across separate
  // report and stream passes.
  Engine engine(test::tiny_config(19));
  const auto blocks =
      static_cast<std::uint64_t>(engine.model().num_blocks());
  const compress::PipelineCounters before = compress::pipeline_counters();
  engine.compress(2);
  const compress::PipelineCounters delta =
      compress::pipeline_counters().delta_since(before);
  EXPECT_EQ(delta.frequency_counts, blocks);
  EXPECT_EQ(delta.cluster_sequences_calls, blocks);
  EXPECT_EQ(delta.grouped_codec_builds, 2 * blocks);

  // Idempotent: a second compress() does no pipeline work at all.
  const compress::PipelineCounters before_again =
      compress::pipeline_counters();
  engine.compress();
  const compress::PipelineCounters delta_again =
      compress::pipeline_counters().delta_since(before_again);
  EXPECT_EQ(delta_again.frequency_counts, 0u);
  EXPECT_EQ(delta_again.cluster_sequences_calls, 0u);
  EXPECT_EQ(delta_again.grouped_codec_builds, 0u);
}

TEST(Engine, AccessorsGuardUncompressedState) {
  Engine engine(test::tiny_config(7));
  EXPECT_THROW(engine.report(), CheckError);
  EXPECT_THROW(engine.block_streams(), CheckError);
  EXPECT_THROW(engine.verify_streams(), CheckError);
  EXPECT_THROW(engine.simulate_speedup(), CheckError);
  EXPECT_THROW(engine.artifact_view(), CheckError);
}

TEST(Engine, SimulateSpeedupRunsZeroPipelineWork) {
  // The whole point of the artifact-view refactor: the simulator
  // consumes the streams compress() already produced. NO frequency
  // count, NO clustering search, NO codec build may run during
  // simulate_speedup (before the refactor it cost a full compress_model
  // pass per call).
  Engine engine(test::tiny_config(23));
  engine.compress();
  const compress::PipelineCounters before = compress::pipeline_counters();
  const auto report = engine.simulate_speedup();
  const compress::PipelineCounters delta =
      compress::pipeline_counters().delta_since(before);
  EXPECT_EQ(delta.frequency_counts, 0u);
  EXPECT_EQ(delta.cluster_sequences_calls, 0u);
  EXPECT_EQ(delta.grouped_codec_builds, 0u);
  EXPECT_EQ(report.conv3x3.size(), engine.model().num_blocks());
}

TEST(Engine, SimulateSpeedupUsesTheDeployedStreams) {
  // The simulated streams are the engine's own artifacts — feeding the
  // view to hwsim directly must reproduce simulate_speedup exactly.
  Engine engine(test::tiny_config(25));
  engine.compress();
  const auto via_engine = engine.simulate_speedup();
  const auto via_view = hwsim::compare_model(engine.artifact_view());
  EXPECT_TRUE(hwsim::cycles_identical(via_engine, via_view));
}

TEST(Engine, EncodingOnlySimulationMatchesFreshCompress) {
  // Without clustering the model keeps its original kernels and
  // compression is a pure function of them, so simulating the encoding
  // streams of a fresh compress_model pass must reproduce the view-fed
  // report cycle-for-cycle. (With clustering a fresh pass would
  // re-cluster the installed, already-clustered kernels and drift.)
  Engine engine(test::tiny_config(42), no_clustering());
  engine.compress();
  const hwsim::SpeedupReport via_view = engine.simulate_speedup();
  const compress::CompressedModel fresh =
      compress::ModelCompressor(engine.options().tree,
                                engine.options().clustering_config)
          .compress_model(engine.model());
  std::vector<compress::KernelCompression> streams;
  for (const compress::CompressedBlock& block : fresh.blocks) {
    streams.push_back(block.encoding);
  }
  const hwsim::SpeedupReport via_compress = hwsim::compare_model(
      compress::view_of(engine.model().op_records(), streams));
  EXPECT_TRUE(hwsim::cycles_identical(via_view, via_compress));
}

TEST(Engine, VerifyStreamsPreconditionNamesTheFix) {
  // The error must tell the caller what to do, and tripping it must
  // leave the engine usable: compress() afterwards still verifies.
  Engine engine(test::tiny_config(17));
  try {
    engine.verify_streams();
    FAIL() << "verify_streams() before compress() must throw";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("verify_streams"), std::string::npos) << what;
    EXPECT_NE(what.find("compress()"), std::string::npos) << what;
  }
  EXPECT_FALSE(engine.is_compressed());
  engine.compress();
  EXPECT_TRUE(engine.verify_streams());
}

TEST(Engine, EncodingOnlyPreservesInferenceBitExactly) {
  // Without clustering the compression is lossless, so classify() must
  // produce IDENTICAL outputs before and after compress().
  Engine engine(test::tiny_config(9), no_clustering());
  bnn::WeightGenerator gen(10);
  const Tensor image =
      gen.sample_activation(engine.model().input_shape());
  const Tensor before = engine.classify(image);
  engine.compress();
  EXPECT_TRUE(engine.verify_streams());
  const Tensor after = engine.classify(image);
  for (std::size_t i = 0; i < after.data().size(); ++i) {
    EXPECT_FLOAT_EQ(after.data()[i], before.data()[i]);
  }
}

TEST(Engine, ClusteringChangesOutputsOnlySlightly) {
  Engine engine(test::tiny_config(11));
  bnn::WeightGenerator gen(12);
  const Tensor image =
      gen.sample_activation(engine.model().input_shape());
  const Tensor before = engine.classify(image);
  engine.compress();
  const Tensor after = engine.classify(image);
  double l1 = 0.0;
  double magnitude = 0.0;
  for (std::size_t i = 0; i < after.data().size(); ++i) {
    l1 += std::abs(after.data()[i] - before.data()[i]);
    magnitude += std::abs(before.data()[i]);
  }
  EXPECT_LT(l1, magnitude);  // perturbation, not a different network
}

TEST(Engine, ClusteringImprovesModelRatio) {
  Engine plain(test::tiny_config(13), no_clustering());
  Engine clustered(test::tiny_config(13));
  const auto& plain_report = plain.compress();
  const auto& clustered_report = clustered.compress();
  EXPECT_GT(clustered_report.mean_clustering_ratio,
            plain_report.mean_encoding_ratio);
}

TEST(Engine, SimulateSpeedupRuns) {
  Engine engine(test::tiny_config(15));
  engine.compress();
  const auto report = engine.simulate_speedup();
  EXPECT_EQ(report.conv3x3.size(), 13u);
  EXPECT_GT(report.total_baseline, 0u);
  EXPECT_GT(report.model_sw_slowdown(), 1.0);
}

}  // namespace
}  // namespace bkc
