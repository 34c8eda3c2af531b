// Tests for the whole-model timing (Table I execution column and the
// Sec VI speedup comparison) on a reduced-width ReActNet.

#include "hwsim/perf_model.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bnn/kernel_sequences.h"
#include "compress/serialize.h"
#include "core/engine.h"
#include "support/support.h"

#include "util/check.h"

namespace bkc::hwsim {
namespace {

// width/4 ReActNet: big enough for meaningful per-block statistics.
using test::mid_config;

/// Engine-style artifact view over a freshly compressed model: the
/// caller keeps `streams` alive for the view's lifetime.
compress::CompressedModelView view_for(
    const bnn::ReActNet& model,
    const std::vector<compress::KernelCompression>& streams) {
  return compress::view_of(model.op_records(), streams);
}

TEST(PerfModel, AnalyticCostsArePositiveAndScale) {
  bnn::OpRecord fc;
  fc.op_class = bnn::OpClass::kOutputLayer;
  fc.macs = 1000;
  fc.storage_bits = 8000;
  const auto small = analytic_op_cycles(fc);
  fc.macs = 2000;
  const auto big = analytic_op_cycles(fc);
  EXPECT_GT(small, 0u);
  EXPECT_GT(big, small);
}

TEST(PerfModel, BandwidthBoundOps) {
  bnn::OpRecord op;
  op.op_class = bnn::OpClass::kOther;
  op.macs = 1;                     // nearly free compute
  op.storage_bits = 8 * 1280000;   // 1.28 MB of parameters
  // 1.28e6 bytes / 12.8 B/cycle = 100000 cycles.
  EXPECT_EQ(analytic_op_cycles(op), 100000u);
}

TEST(PerfModel, ModelTimingFractionsSumToOne) {
  const bnn::ReActNet model(mid_config(3));
  const ModelTiming timing = time_model_baseline(model.op_records());
  EXPECT_GT(timing.total_cycles, 0u);
  double total = 0.0;
  for (const auto cls :
       {bnn::OpClass::kInputLayer, bnn::OpClass::kOutputLayer,
        bnn::OpClass::kConv1x1, bnn::OpClass::kConv3x3,
        bnn::OpClass::kOther}) {
    total += timing.fraction(cls);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  // Binary 3x3 convolutions dominate execution, as in Table I.
  EXPECT_GT(timing.fraction(bnn::OpClass::kConv3x3), 0.35);
}

TEST(PerfModel, CompareModelShapes) {
  const bnn::ReActNet model(mid_config(5));
  const auto streams = test::clustered_artifacts(model);
  const SpeedupReport report = compare_model(view_for(model, streams));
  ASSERT_EQ(report.conv3x3.size(), 13u);
  EXPECT_GT(report.other_cycles, 0u);
  EXPECT_EQ(report.total_baseline,
            report.other_cycles +
                [&] {
                  std::uint64_t sum = 0;
                  for (const auto& l : report.conv3x3) {
                    sum += l.baseline_cycles;
                  }
                  return sum;
                }());
}

/// The fields of one layer simulation a per-op run pins exactly.
void expect_same_sim(const LayerSimResult& actual,
                     const LayerSimResult& expected) {
  EXPECT_EQ(actual.name, expected.name);
  EXPECT_EQ(actual.variant, expected.variant);
  EXPECT_EQ(actual.cycles, expected.cycles) << expected.name;
  EXPECT_EQ(actual.decode_cycles, expected.decode_cycles) << expected.name;
  EXPECT_EQ(actual.sampled_uops, expected.sampled_uops) << expected.name;
  EXPECT_EQ(actual.load_stall_cycles, expected.load_stall_cycles);
  EXPECT_EQ(actual.ldps_stall_cycles, expected.ldps_stall_cycles);
  EXPECT_EQ(actual.l1_misses, expected.l1_misses);
  EXPECT_EQ(actual.l2_misses, expected.l2_misses);
  EXPECT_EQ(actual.dram_accesses, expected.dram_accesses);
}

TEST(PerfModel, CompareModelEqualsPerOpSimulation) {
  // The oracle: every op simulated on its own, in op order. The tiny
  // schedule repeats the {512,512,1}/8 block five times, so any
  // sharing of simulations between equal geometries must not show.
  const bnn::ReActNet model(test::tiny_config(17));
  const auto streams = test::clustered_artifacts(model);
  const compress::CompressedModelView view = view_for(model, streams);
  const SpeedupReport report = compare_model(view);

  std::uint64_t other_cycles = 0;
  std::size_t block = 0;
  for (const auto& op : view.ops) {
    const bool binary = op.precision_bits == 1;
    if (binary && op.op_class == bnn::OpClass::kConv3x3) {
      ASSERT_LT(block, report.conv3x3.size());
      const LayerComparison& layer = report.conv3x3[block];
      const StreamInfo stream = stream_info_for(view.blocks[block]);
      const LayerSimResult baseline =
          simulate_binary_conv_layer(op, ConvVariant::kBaseline);
      const LayerSimResult sw =
          simulate_binary_conv_layer(op, ConvVariant::kSwDecode, &stream);
      const LayerSimResult hw =
          simulate_binary_conv_layer(op, ConvVariant::kHwDecode, &stream);
      EXPECT_EQ(layer.name, op.name);
      EXPECT_EQ(layer.baseline_cycles, baseline.cycles) << op.name;
      EXPECT_EQ(layer.sw_cycles, sw.cycles) << op.name;
      EXPECT_EQ(layer.hw_cycles, hw.cycles) << op.name;
      expect_same_sim(layer.baseline_detail, baseline);
      expect_same_sim(layer.sw_detail, sw);
      expect_same_sim(layer.hw_detail, hw);
      ++block;
    } else if (binary && op.op_class == bnn::OpClass::kConv1x1) {
      other_cycles +=
          simulate_binary_conv_layer(op, ConvVariant::kBaseline).cycles;
    } else {
      other_cycles += analytic_op_cycles(op);
    }
  }
  EXPECT_EQ(block, report.conv3x3.size());
  EXPECT_EQ(report.other_cycles, other_cycles);
}

TEST(PerfModel, SwSlowerHwNotSlower) {
  // The paper's two headline directions: software decoding loses,
  // hardware decoding wins (Secs IV-B and VI).
  const bnn::ReActNet model(mid_config(7));
  const auto streams = test::clustered_artifacts(model);
  const SpeedupReport report = compare_model(view_for(model, streams));
  EXPECT_GT(report.model_sw_slowdown(), 1.02);
  EXPECT_GT(report.conv3x3_sw_slowdown(), 1.05);
  for (const auto& layer : report.conv3x3) {
    EXPECT_GT(layer.sw_slowdown(), 0.99) << layer.name;
    // Layers with a reasonable spatial extent must not lose from
    // hardware decoding. Tiny late layers of this *reduced* model (2x2
    // or 1x1 outputs) are genuinely decode-bound - each sequence is
    // decoded once but used for only a couple of pixels - which is a
    // real crossover of the paper's design, surfaced by the ablation
    // bench. The full-size model (>= 7x7) is on the winning side
    // everywhere.
    if (layer.baseline_detail.sampled_uops > 0 &&
        layer.hw_detail.ldps_stall_cycles == 0) {
      EXPECT_GT(layer.hw_speedup(), 0.95) << layer.name;
    }
  }
}

TEST(PerfModel, StreamInfoForMatchesKernel) {
  const auto kernel = test::calibrated_kernel(32, 32, 11);
  const compress::CompressedBlock block = test::encode_block(kernel);
  const compress::KernelCompression& compression = block.clustered;
  const StreamInfo stream = stream_info_for(compression);
  EXPECT_EQ(stream.code_lengths.size(), 32u * 32u);
  EXPECT_EQ(stream.total_bits, compression.compressed.stream_bits);
  // The scanned lengths sum to the stream's declared bit count.
  std::uint64_t sum = 0;
  for (const auto len : stream.code_lengths) sum += len;
  EXPECT_EQ(sum, compression.compressed.stream_bits);
  for (const auto len : stream.code_lengths) {
    EXPECT_GE(len, 6);
    EXPECT_LE(len, 12);
  }
  // And the scanned lengths are exactly the per-sequence codec lengths
  // in stream order.
  const auto sequences = bnn::extract_sequences(block.clustered_kernel);
  ASSERT_EQ(sequences.size(), stream.code_lengths.size());
  for (std::size_t i = 0; i < sequences.size(); ++i) {
    EXPECT_EQ(stream.code_lengths[i],
              compression.codec.code_length(sequences[i]));
  }
}

TEST(PerfModel, StreamInfoForLengthsMatchEncodedAndParsedArtifacts) {
  // The lengths a StreamInfo carries are the per-sequence codec lengths
  // of the kernel the stream encodes, in stream order — whether the
  // artifact comes straight from the encoder or from a parsed container
  // of the same engine.
  const std::string path =
      ::testing::TempDir() + "/bkc_stream_info_lengths.bkcm";
  Engine engine(test::tiny_config(29));
  engine.compress();
  engine.save_compressed(path);
  const compress::MappedBkcm mapped = compress::MappedBkcm::open(path);
  const auto& encoded = engine.block_streams();
  ASSERT_EQ(mapped.blocks().size(), encoded.size());
  for (std::size_t b = 0; b < encoded.size(); ++b) {
    const auto sequences =
        bnn::extract_sequences(engine.model().block(b).conv3x3().kernel());
    for (const compress::KernelCompression* artifact :
         {&encoded[b], &mapped.blocks()[b].artifact}) {
      const StreamInfo stream = stream_info_for(*artifact);
      EXPECT_EQ(stream.total_bits, artifact->compressed.stream_bits);
      ASSERT_EQ(stream.code_lengths.size(), sequences.size()) << "block " << b;
      for (std::size_t i = 0; i < sequences.size(); ++i) {
        ASSERT_EQ(stream.code_lengths[i],
                  artifact->codec.code_length(sequences[i]))
            << "block " << b << " sequence " << i;
      }
    }
  }
  std::remove(path.c_str());
}

TEST(PerfModel, StreamInfoForRejectsTruncatedStreamBits) {
  const auto kernel = test::calibrated_kernel(16, 16, 13);
  compress::KernelCompression compression =
      test::encode_block(kernel).clustered;
  compression.compressed.stream_bits -= 3;
  EXPECT_THROW(stream_info_for(compression), bkc::CheckError);
}

TEST(PerfModel, CompareModelRejectsMismatchedView) {
  const bnn::ReActNet model(mid_config(9));
  auto streams = test::clustered_artifacts(model);
  streams.pop_back();  // one stream short of the op layout
  EXPECT_THROW(view_for(model, streams), bkc::CheckError);
}

TEST(PerfModel, SpeedupReportGuards) {
  SpeedupReport empty;
  EXPECT_THROW(empty.model_sw_slowdown(), bkc::CheckError);
  EXPECT_THROW(empty.conv3x3_hw_speedup(), bkc::CheckError);
}

}  // namespace
}  // namespace bkc::hwsim
