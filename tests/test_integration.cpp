// Cross-module integration properties, parameterized over seeds: the
// full chain model -> frequency -> clustering -> codec -> stream ->
// decode -> installed kernels -> inference must be consistent for any
// seed, and the timing model must rank the variants consistently.

#include <gtest/gtest.h>

#include "compress/block_codec.h"
#include "core/bkc.h"
#include "support/support.h"

namespace bkc {
namespace {

class EndToEnd : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EndToEnd, LosslessChainForAnySeed) {
  Engine engine(test::tiny_config(GetParam()), test::no_clustering());
  engine.compress();
  EXPECT_TRUE(engine.verify_streams());
  // Every stream decodes to the installed kernel AND re-encodes to the
  // identical byte stream (canonical determinism).
  for (std::size_t b = 0; b < engine.block_streams().size(); ++b) {
    const auto& stream = engine.block_streams()[b];
    const auto decoded = compress::decode_block(stream);
    EXPECT_TRUE(decoded == engine.model().block(b).conv3x3().kernel());
    std::size_t reencoded_bits = 0;
    const auto reencoded =
        stream.codec.encode(bnn::extract_sequences(decoded), reencoded_bits);
    EXPECT_EQ(reencoded, stream.compressed.stream);
    EXPECT_EQ(reencoded_bits, stream.compressed.stream_bits);
  }
}

TEST_P(EndToEnd, ClusteredChainStaysConsistent) {
  Engine engine(test::tiny_config(GetParam()));
  const auto& report = engine.compress();
  EXPECT_TRUE(engine.verify_streams());
  // Accounting consistency: the clustered stream bits reported by the
  // analysis equal the actual stream bits of the installed kernels.
  std::uint64_t stream_bits = 0;
  for (const auto& s : engine.block_streams()) {
    stream_bits += s.compressed.stream_bits;
  }
  EXPECT_EQ(stream_bits, report.conv3x3_clustering_bits);
  // Ratios are internally consistent.
  for (const auto& block : report.blocks) {
    EXPECT_NEAR(block.encoding_ratio,
                static_cast<double>(block.uncompressed_bits) /
                    static_cast<double>(block.encoding_bits),
                1e-9);
    EXPECT_NEAR(block.clustering_ratio,
                static_cast<double>(block.uncompressed_bits) /
                    static_cast<double>(block.clustering_bits),
                1e-9);
  }
}

TEST_P(EndToEnd, CompressedInferenceMatchesManualDecodePath) {
  // Decoding each stream and installing the result must give the same
  // network the engine already runs: classify() outputs are identical.
  Engine engine(test::tiny_config(GetParam()));
  engine.compress();
  bnn::WeightGenerator gen(GetParam() + 1000);
  const Tensor image =
      gen.sample_activation(engine.model().input_shape());
  const Tensor direct = engine.classify(image);

  bnn::ReActNet rebuilt(test::tiny_config(GetParam()));
  for (std::size_t b = 0; b < engine.block_streams().size(); ++b) {
    const auto& stream = engine.block_streams()[b];
    rebuilt.block(b).conv3x3().set_kernel(compress::decode_block(stream));
  }
  const Tensor via_streams = test::run_forward(rebuilt, image);
  for (std::size_t i = 0; i < direct.data().size(); ++i) {
    EXPECT_FLOAT_EQ(via_streams.data()[i], direct.data()[i]);
  }
}

TEST_P(EndToEnd, TimingVariantsRankConsistently) {
  Engine engine(test::tiny_config(GetParam()));
  engine.compress();
  hwsim::SamplingParams fast{.sample_rows = 2, .warmup_rows = 1};
  const auto report = engine.simulate_speedup({}, {}, fast);
  // Software decoding always costs extra work on top of the baseline.
  EXPECT_GT(report.total_sw, report.total_baseline);
  // Determinism of the simulator.
  const auto again = engine.simulate_speedup({}, {}, fast);
  EXPECT_EQ(report.total_baseline, again.total_baseline);
  EXPECT_EQ(report.total_hw, again.total_hw);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EndToEnd,
                         ::testing::Values(1, 7, 42, 1234, 99999));

}  // namespace
}  // namespace bkc
