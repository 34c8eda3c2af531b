#include "hwsim/perf_model.h"

#include <algorithm>
#include <limits>

#include "hwsim/sampled.h"
#include "util/check.h"

namespace bkc::hwsim {

void ModelTiming::add(OpTiming op) {
  cycles_by_class[op.op_class] += op.cycles;
  total_cycles += op.cycles;
  ops.push_back(std::move(op));
}

double ModelTiming::fraction(bnn::OpClass op_class) const {
  check(total_cycles > 0, "ModelTiming: no cycles recorded");
  const auto it = cycles_by_class.find(op_class);
  if (it == cycles_by_class.end()) return 0.0;
  return static_cast<double>(it->second) /
         static_cast<double>(total_cycles);
}

std::uint64_t analytic_op_cycles(const bnn::OpRecord& op,
                                 const CpuParams& cpu) {
  const auto macs = static_cast<double>(op.macs);
  double compute = 0.0;
  switch (op.op_class) {
    case bnn::OpClass::kInputLayer:
      compute = macs / cpu.stem_macs_per_cycle;
      break;
    case bnn::OpClass::kOutputLayer:
      // daBNN-style deployments leave the classifier as a scalar fp32
      // GEMV after dequantization; this is what makes the output layer
      // ~19% of runtime in the paper's Table I despite its tiny MAC
      // count.
      compute = macs * cpu.fc_cycles_per_mac;
      break;
    default:
      compute = macs / cpu.elementwise_ops_per_cycle;
      break;
  }
  // Parameter traffic at DRAM bandwidth (streamed once).
  const double bytes = static_cast<double>(op.storage_bits) / 8.0;
  const double traffic = bytes / cpu.dram_bytes_per_cycle;
  return static_cast<std::uint64_t>(std::max(compute, traffic));
}

ModelTiming time_model_baseline(const std::vector<bnn::OpRecord>& ops,
                                const CpuParams& cpu,
                                const SamplingParams& sampling) {
  ModelTiming timing;
  for (const auto& op : ops) {
    std::uint64_t cycles = 0;
    const bool binary_conv = op.precision_bits == 1 &&
                             (op.op_class == bnn::OpClass::kConv3x3 ||
                              op.op_class == bnn::OpClass::kConv1x1);
    if (binary_conv) {
      cycles = simulate_binary_conv_layer(op, ConvVariant::kBaseline,
                                          nullptr, cpu, {}, sampling)
                   .cycles;
    } else {
      cycles = analytic_op_cycles(op, cpu);
    }
    timing.add({.name = op.name, .op_class = op.op_class, .cycles = cycles});
  }
  return timing;
}

double LayerComparison::sw_slowdown() const {
  check(baseline_cycles > 0, "LayerComparison: baseline is zero");
  return static_cast<double>(sw_cycles) /
         static_cast<double>(baseline_cycles);
}

double LayerComparison::hw_speedup() const {
  check(hw_cycles > 0, "LayerComparison: hw cycles is zero");
  return static_cast<double>(baseline_cycles) /
         static_cast<double>(hw_cycles);
}

double SpeedupReport::model_sw_slowdown() const {
  check(total_baseline > 0, "SpeedupReport: empty");
  return static_cast<double>(total_sw) /
         static_cast<double>(total_baseline);
}

double SpeedupReport::model_hw_speedup() const {
  check(total_hw > 0, "SpeedupReport: empty");
  return static_cast<double>(total_baseline) /
         static_cast<double>(total_hw);
}

double SpeedupReport::conv3x3_sw_slowdown() const {
  std::uint64_t base = 0;
  std::uint64_t sw = 0;
  for (const auto& layer : conv3x3) {
    base += layer.baseline_cycles;
    sw += layer.sw_cycles;
  }
  check(base > 0, "SpeedupReport: no 3x3 layers");
  return static_cast<double>(sw) / static_cast<double>(base);
}

double SpeedupReport::conv3x3_hw_speedup() const {
  std::uint64_t base = 0;
  std::uint64_t hw = 0;
  for (const auto& layer : conv3x3) {
    base += layer.baseline_cycles;
    hw += layer.hw_cycles;
  }
  check(hw > 0, "SpeedupReport: no 3x3 layers");
  return static_cast<double>(base) / static_cast<double>(hw);
}

bool cycles_identical(const SpeedupReport& a, const SpeedupReport& b) {
  if (a.conv3x3.size() != b.conv3x3.size() ||
      a.other_cycles != b.other_cycles ||
      a.total_baseline != b.total_baseline || a.total_sw != b.total_sw ||
      a.total_hw != b.total_hw) {
    return false;
  }
  for (std::size_t i = 0; i < a.conv3x3.size(); ++i) {
    if (a.conv3x3[i].name != b.conv3x3[i].name ||
        a.conv3x3[i].baseline_cycles != b.conv3x3[i].baseline_cycles ||
        a.conv3x3[i].sw_cycles != b.conv3x3[i].sw_cycles ||
        a.conv3x3[i].hw_cycles != b.conv3x3[i].hw_cycles) {
      return false;
    }
  }
  return true;
}

StreamInfo stream_info_for(const compress::KernelCompression& compression) {
  const compress::CompressedKernel& kernel = compression.compressed;
  // The scan consumes exactly stream_bits or throws, so the lengths sum
  // to the stream's bit count.
  return StreamInfo{
      .code_lengths = compress::scan_code_lengths(
          kernel.stream, kernel.stream_bits, kernel.num_sequences(),
          compression.codec.config()),
      .total_bits = kernel.stream_bits};
}

SpeedupReport compare_model(const compress::CompressedModelView& view,
                            const CpuParams& cpu,
                            const DecoderParams& decoder,
                            const SamplingParams& sampling) {
  // Every block represents itself: a budget no geometry group reaches.
  SamplingConfig every_block;
  every_block.max_clusters_per_group = std::numeric_limits<int>::max();
  return compare_model_sampled(view, every_block, cpu, decoder, sampling)
      .report;
}

}  // namespace bkc::hwsim
