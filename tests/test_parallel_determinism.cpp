// The determinism guarantee of the parallel execution layer: every
// parallel entry point (Engine::classify / classify_batch /
// verify_streams / compress, ModelCompressor::compress_model and its
// analyze view) must produce results bit-identical
// to the serial path at every thread count, with and without the
// clustering pass.

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "bnn/weights.h"
#include "compress/pipeline.h"
#include "core/engine.h"
#include "support/support.h"
#include "util/simd.h"

namespace bkc {
namespace {

// The tested fan-outs: serial, even splits, more threads than blocks on
// the tiny model, and an odd count that exercises uneven partitions.
const int kThreadCounts[] = {1, 2, 4, 7};

std::vector<Tensor> test_images(const bnn::ReActNet& model, int count,
                                std::uint64_t seed) {
  bnn::WeightGenerator gen(seed);
  std::vector<Tensor> images;
  images.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    images.push_back(gen.sample_activation(model.input_shape()));
  }
  return images;
}

// Bit-identical, not approximately-equal: the whole point of the fixed
// partitioning is that no float may differ by even one ulp.
void expect_bit_identical(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.data().size(), b.data().size());
  ASSERT_EQ(a.data().size_bytes(), b.data().size_bytes());
  EXPECT_EQ(
      std::memcmp(a.data().data(), b.data().data(), a.data().size_bytes()),
      0);
}

void expect_block_reports_equal(const compress::BlockReport& a,
                                const compress::BlockReport& b) {
  EXPECT_EQ(a.block_name, b.block_name);
  EXPECT_EQ(a.num_sequences, b.num_sequences);
  EXPECT_EQ(a.distinct_sequences, b.distinct_sequences);
  EXPECT_EQ(a.top16_share, b.top16_share);
  EXPECT_EQ(a.top64_share, b.top64_share);
  EXPECT_EQ(a.top256_share, b.top256_share);
  EXPECT_EQ(a.entropy_bits, b.entropy_bits);
  EXPECT_EQ(a.uncompressed_bits, b.uncompressed_bits);
  EXPECT_EQ(a.encoding_bits, b.encoding_bits);
  EXPECT_EQ(a.clustering_bits, b.clustering_bits);
  EXPECT_EQ(a.encoding_ratio, b.encoding_ratio);
  EXPECT_EQ(a.clustering_ratio, b.clustering_ratio);
  EXPECT_EQ(a.huffman_ratio, b.huffman_ratio);
  EXPECT_EQ(a.node_shares_encoding, b.node_shares_encoding);
  EXPECT_EQ(a.node_shares_clustering, b.node_shares_clustering);
  EXPECT_EQ(a.flipped_bit_fraction, b.flipped_bit_fraction);
  EXPECT_EQ(a.replaced_sequences, b.replaced_sequences);
  EXPECT_EQ(a.decode_table_bits, b.decode_table_bits);
}

void expect_model_reports_equal(const compress::ModelReport& a,
                                const compress::ModelReport& b) {
  ASSERT_EQ(a.blocks.size(), b.blocks.size());
  for (std::size_t i = 0; i < a.blocks.size(); ++i) {
    expect_block_reports_equal(a.blocks[i], b.blocks[i]);
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

EngineOptions options_for(bool clustering) {
  return clustering ? EngineOptions{} : test::no_clustering();
}

class ParallelDeterminism : public ::testing::TestWithParam<bool> {};

TEST_P(ParallelDeterminism, ClassifyBatchMatchesSerialClassify) {
  Engine engine(test::tiny_config(21), options_for(GetParam()));
  engine.compress();
  const auto images = test_images(engine.model(), 6, 77);

  std::vector<Tensor> serial;
  for (const Tensor& image : images) serial.push_back(engine.classify(image));

  for (int threads : kThreadCounts) {
    const auto batch = engine.classify_batch(images, threads);
    ASSERT_EQ(batch.size(), serial.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      expect_bit_identical(batch[i], serial[i]);
    }
  }
}

TEST_P(ParallelDeterminism, ParallelConvClassifyMatchesSerial) {
  Engine engine(test::tiny_config(23), options_for(GetParam()));
  engine.compress();
  const auto images = test_images(engine.model(), 2, 78);
  for (const Tensor& image : images) {
    const Tensor serial = engine.classify(image, 1);
    for (int threads : kThreadCounts) {
      expect_bit_identical(engine.classify(image, threads), serial);
    }
  }
}

TEST_P(ParallelDeterminism, WorkspacePathMatchesGoldenAndScalarAtEveryCount) {
  // The arena-backed forward path (classify / classify_into over a
  // reused Workspace) across the full thread matrix, with clustering on
  // and off, against two oracles: the checked-in golden score bits
  // (tests/golden/reactnet_tiny_scores.txt) and a 1-thread run pinned
  // to the scalar kernels. Neither the memory plan, the thread count
  // nor the SIMD dispatch may change a single bit of any score.
  const bnn::ReActNetConfig config = test::tiny_config(42);
  Engine engine(config, options_for(GetParam()));
  engine.compress();
  const std::vector<Tensor> images = test::golden_images(config);
  bnn::Workspace workspace = engine.make_workspace();
  for (std::size_t i = 0; i < images.size(); ++i) {
    const std::string key = std::string("tiny ") +
                            (GetParam() ? "clustering" : "encoding_only") +
                            " image" + std::to_string(i);
    const std::string golden =
        test::golden_scores("reactnet_tiny_scores.txt", key);
    Tensor scalar;
    {
      simd::ScopedForceScalar force;
      scalar = engine.classify(images[i], 1);
    }
    EXPECT_EQ(test::score_bits(scalar), golden) << key;
    for (int threads : kThreadCounts) {
      const Tensor scores = engine.classify(images[i], threads);
      EXPECT_EQ(test::score_bits(scores), golden) << key;
      expect_bit_identical(scores, scalar);
      Tensor into;
      engine.classify_into(images[i], into, workspace, threads);
      expect_bit_identical(into, scalar);
    }
  }
  // The reused workspace's peak is exactly the plan — at every thread
  // count, with and without clustering.
  EXPECT_EQ(workspace.arena().high_water(),
            engine.memory_plan().arena_bytes());
}

TEST_P(ParallelDeterminism, AnalyzeMatchesSerial) {
  // analyze() is a thin view over compress_model(), whose determinism
  // the CompressModel test sweeps at every thread count; here one
  // uneven-partition fan-out guards the view itself.
  const EngineOptions options = options_for(GetParam());
  const bnn::ReActNet model(test::tiny_config(25));
  const compress::ModelCompressor compressor(options.tree,
                                             options.clustering_config);
  const auto serial = compressor.analyze(model, 1);
  expect_model_reports_equal(compressor.analyze(model, 7), serial);
}

void expect_kernel_compressions_equal(
    const compress::KernelCompression& a,
    const compress::KernelCompression& b) {
  EXPECT_EQ(a.frequencies.counts(), b.frequencies.counts());
  EXPECT_EQ(a.clustering.replacements().size(),
            b.clustering.replacements().size());
  EXPECT_EQ(a.clustering.replaced_occurrences(),
            b.clustering.replaced_occurrences());
  EXPECT_EQ(a.coded_frequencies.counts(), b.coded_frequencies.counts());
  EXPECT_EQ(a.compressed.stream, b.compressed.stream);
  EXPECT_EQ(a.compressed.stream_bits, b.compressed.stream_bits);
}

TEST(ParallelDeterminismCompressModel, MatchesSerialAtEveryThreadCount) {
  // The unified pass: reports, both stream artifacts and the aggregate
  // must all be bit-identical to the serial pass at every thread count.
  const bnn::ReActNet model(test::tiny_config(33));
  const compress::ModelCompressor compressor;
  const auto serial = compressor.compress_model(model, 1);
  for (int threads : kThreadCounts) {
    const auto parallel = compressor.compress_model(model, threads);
    expect_model_reports_equal(parallel.report, serial.report);
    ASSERT_EQ(parallel.blocks.size(), serial.blocks.size());
    for (std::size_t b = 0; b < parallel.blocks.size(); ++b) {
      expect_block_reports_equal(parallel.blocks[b].report,
                                 serial.blocks[b].report);
      expect_kernel_compressions_equal(parallel.blocks[b].encoding,
                                       serial.blocks[b].encoding);
      expect_kernel_compressions_equal(parallel.blocks[b].clustered,
                                       serial.blocks[b].clustered);
      EXPECT_TRUE(parallel.blocks[b].clustered_kernel ==
                  serial.blocks[b].clustered_kernel);
    }
  }
}

TEST_P(ParallelDeterminism, EngineCompressMatchesSerial) {
  const bool clustering = GetParam();
  Engine serial(test::tiny_config(29), options_for(clustering));
  const auto& serial_report = serial.compress(1);
  for (int threads : kThreadCounts) {
    Engine parallel(test::tiny_config(29), options_for(clustering));
    expect_model_reports_equal(parallel.compress(threads), serial_report);
    // The installed (possibly clustered) kernels and the emitted streams
    // must match too, not just the report.
    ASSERT_EQ(parallel.block_streams().size(), serial.block_streams().size());
    for (std::size_t b = 0; b < serial.block_streams().size(); ++b) {
      EXPECT_TRUE(parallel.model().block(b).conv3x3().kernel() ==
                  serial.model().block(b).conv3x3().kernel());
      EXPECT_EQ(parallel.block_streams()[b].compressed.stream,
                serial.block_streams()[b].compressed.stream);
    }
  }
}

TEST_P(ParallelDeterminism, DispatchedKernelsMatchForcedScalarAtEveryCount) {
  // The SIMD dispatch layer must not weaken the determinism guarantee:
  // whatever conv/decode kernels active dispatch picks on this host,
  // engine results stay bit-identical to the forced-scalar reference
  // run at every thread count.
  Engine engine(test::tiny_config(35), options_for(GetParam()));
  engine.compress();
  const auto images = test_images(engine.model(), 2, 79);
  for (const Tensor& image : images) {
    Tensor reference;
    {
      simd::ScopedForceScalar force;
      reference = engine.classify(image, 1);
    }
    for (int threads : kThreadCounts) {
      expect_bit_identical(engine.classify(image, threads), reference);
      simd::ScopedForceScalar force;
      expect_bit_identical(engine.classify(image, threads), reference);
    }
  }
}

TEST_P(ParallelDeterminism, ConcurrentClassifyBatchCallersMatchSerial) {
  // The serving scenario: several user threads drive classify_batch on
  // the SAME engine concurrently (the shared pool's run mutex
  // serializes the fan-outs). Every caller — each at a different
  // thread count — must still get results bit-identical to the serial
  // path; under the TSan CI job this also proves the concurrent-caller
  // path is race-free.
  Engine engine(test::tiny_config(37), options_for(GetParam()));
  engine.compress();
  const auto images = test_images(engine.model(), 4, 81);

  std::vector<Tensor> serial;
  for (const Tensor& image : images) serial.push_back(engine.classify(image));

  constexpr int kRounds = 3;
  std::vector<std::vector<std::vector<Tensor>>> results(
      std::size(kThreadCounts));
  std::vector<std::thread> callers;
  for (std::size_t t = 0; t < std::size(kThreadCounts); ++t) {
    callers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        results[t].push_back(
            engine.classify_batch(images, kThreadCounts[t]));
      }
    });
  }
  for (std::thread& caller : callers) caller.join();

  for (std::size_t t = 0; t < std::size(kThreadCounts); ++t) {
    ASSERT_EQ(results[t].size(), static_cast<std::size_t>(kRounds));
    for (const std::vector<Tensor>& batch : results[t]) {
      ASSERT_EQ(batch.size(), serial.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        expect_bit_identical(batch[i], serial[i]);
      }
    }
  }
}

TEST_P(ParallelDeterminism, VerifyStreamsPassesAtEveryThreadCount) {
  Engine engine(test::tiny_config(31), options_for(GetParam()));
  engine.compress();
  for (int threads : kThreadCounts) {
    EXPECT_TRUE(engine.verify_streams(threads));
  }
}

INSTANTIATE_TEST_SUITE_P(ClusteringOnOff, ParallelDeterminism,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "clustering" : "encoding_only";
                         });

}  // namespace
}  // namespace bkc
