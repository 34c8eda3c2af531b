#include "hwsim/sampled.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <map>
#include <numeric>
#include <utility>

#include "hwsim/conv_trace.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace bkc::hwsim {

namespace {

/// One simulation to run: a pure function of (op, variant, block
/// stream), so the task list can be executed in any order — and in
/// parallel — with each result landing in its own preassigned slot.
struct SimTask {
  const bnn::OpRecord* op = nullptr;
  ConvVariant variant = ConvVariant::kBaseline;
  const compress::BlockStreamView* block = nullptr;  ///< null for baseline
};

/// Marks an op costed analytically rather than simulated.
constexpr std::size_t kAnalytic = std::numeric_limits<std::size_t>::max();

/// Split one geometry group (block indices in block order) into at most
/// `max_runs` runs of close stream bits: sort by stream bits, cut at the
/// widest gaps (ties to the earliest gap), and let each run's lower
/// median represent it.
std::vector<SampledClusterInfo> split_group(
    const compress::CompressedModelView& view,
    const std::vector<std::size_t>& group, std::size_t max_runs) {
  const auto bits = [&](std::size_t block) {
    return view.blocks[block].stream_bits;
  };
  std::vector<std::size_t> sorted = group;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [&](std::size_t a, std::size_t b) {
                     return bits(a) < bits(b);
                   });

  // Gap i lies between sorted[i] and sorted[i + 1].
  std::vector<std::size_t> cuts(sorted.size() - 1);
  std::iota(cuts.begin(), cuts.end(), std::size_t{0});
  const auto width = [&](std::size_t gap) {
    return bits(sorted[gap + 1]) - bits(sorted[gap]);
  };
  std::stable_sort(cuts.begin(), cuts.end(),
                   [&](std::size_t a, std::size_t b) {
                     return width(a) > width(b);
                   });
  cuts.resize(std::min(cuts.size(), max_runs - 1));
  std::sort(cuts.begin(), cuts.end());
  cuts.push_back(sorted.size() - 1);

  std::vector<SampledClusterInfo> runs;
  std::size_t begin = 0;
  for (const std::size_t cut : cuts) {
    const std::size_t end = cut + 1;
    SampledClusterInfo run;
    run.representative = sorted[begin + (end - begin - 1) / 2];
    run.members.assign(sorted.begin() + static_cast<std::ptrdiff_t>(begin),
                       sorted.begin() + static_cast<std::ptrdiff_t>(end));
    std::sort(run.members.begin(), run.members.end());
    const double rep_bits =
        std::max(1.0, static_cast<double>(bits(run.representative)));
    for (const std::size_t member : run.members) {
      const double skew = std::abs(static_cast<double>(bits(member)) -
                                   static_cast<double>(
                                       bits(run.representative))) /
                          rep_bits;
      run.max_stream_bits_skew = std::max(run.max_stream_bits_skew, skew);
    }
    runs.push_back(std::move(run));
    begin = end;
  }
  return runs;
}

}  // namespace

SampledSpeedupReport compare_model_sampled(
    const compress::CompressedModelView& view, const SamplingConfig& config,
    const CpuParams& cpu, const DecoderParams& decoder,
    const SamplingParams& sampling) {
  check(config.max_clusters_per_group >= 1,
        "compare_model_sampled: max_clusters_per_group must be >= 1");
  check(config.num_threads >= 1,
        "compare_model_sampled: num_threads must be >= 1");

  // ---- Pass 1: one baseline task per distinct geometry (3x3 and binary
  // 1x1 alike), and the 3x3 blocks grouped by geometry in block order.
  std::vector<SimTask> tasks;
  std::map<LayerGeometry, std::size_t> baseline_slot;
  std::vector<std::size_t> op_slot(view.ops.size(), kAnalytic);
  std::vector<const bnn::OpRecord*> block_op;
  std::map<LayerGeometry, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < view.ops.size(); ++i) {
    const bnn::OpRecord& op = view.ops[i];
    const bool binary_conv = op.precision_bits == 1 &&
                             (op.op_class == bnn::OpClass::kConv3x3 ||
                              op.op_class == bnn::OpClass::kConv1x1);
    if (!binary_conv) continue;
    const LayerGeometry geometry = LayerGeometry::from_op(op, cpu.vector_bits);
    const auto [slot, added] = baseline_slot.emplace(geometry, tasks.size());
    if (added) tasks.push_back({.op = &op, .variant = ConvVariant::kBaseline});
    op_slot[i] = slot->second;
    if (op.op_class == bnn::OpClass::kConv3x3) {
      check(block_op.size() < view.blocks.size(),
            "compare_model: more 3x3 convs than compressed blocks");
      groups[geometry].push_back(block_op.size());
      block_op.push_back(&op);
    }
  }
  check(block_op.size() == view.blocks.size(),
        "compare_model: unmatched compressed blocks");

  // ---- Pass 2: split every group into runs; each run's representative
  // gets an sw and an hw task, at rep_slot + 2 * run index.
  SamplingSummary summary;
  summary.num_blocks = view.blocks.size();
  summary.num_geometry_groups = groups.size();
  const std::size_t rep_slot = tasks.size();
  std::vector<std::size_t> block_run(view.blocks.size(), 0);
  for (const auto& [geometry, group] : groups) {
    for (SampledClusterInfo& run : split_group(
             view, group,
             static_cast<std::size_t>(config.max_clusters_per_group))) {
      for (const std::size_t member : run.members) {
        block_run[member] = summary.clusters.size();
      }
      summary.max_stream_bits_skew =
          std::max(summary.max_stream_bits_skew, run.max_stream_bits_skew);
      const std::size_t rep = run.representative;
      tasks.push_back({.op = block_op[rep],
                       .variant = ConvVariant::kSwDecode,
                       .block = &view.blocks[rep]});
      tasks.push_back({.op = block_op[rep],
                       .variant = ConvVariant::kHwDecode,
                       .block = &view.blocks[rep]});
      summary.clusters.push_back(std::move(run));
    }
  }
  summary.num_clusters = summary.clusters.size();
  summary.simulated_blocks = summary.num_clusters;
  summary.simulated_fraction =
      summary.num_blocks == 0
          ? 1.0
          : static_cast<double>(summary.simulated_blocks) /
                static_cast<double>(summary.num_blocks);

  // ---- Pass 3: run every task into its preassigned slot. Each task is
  // an independent pure function (fresh core per call), so the fan-out
  // is bit-identical at every thread count.
  std::vector<LayerSimResult> results(tasks.size());
  parallel_for(static_cast<std::int64_t>(tasks.size()), config.num_threads,
               [&](std::int64_t begin, std::int64_t end) {
                 for (std::int64_t i = begin; i < end; ++i) {
                   const SimTask& task = tasks[static_cast<std::size_t>(i)];
                   StreamInfo stream;
                   if (task.block != nullptr) {
                     stream = stream_info_for(*task.block);
                   }
                   results[static_cast<std::size_t>(i)] =
                       simulate_binary_conv_layer(
                           *task.op, task.variant,
                           task.block != nullptr ? &stream : nullptr, cpu,
                           decoder, sampling);
                 }
               });

  // ---- Pass 4: assemble serially in op order, every 3x3 op reading its
  // geometry's baseline and its run representative's sw/hw results.
  SampledSpeedupReport out;
  SpeedupReport& report = out.report;
  std::size_t block = 0;
  for (std::size_t i = 0; i < view.ops.size(); ++i) {
    const bnn::OpRecord& op = view.ops[i];
    if (op_slot[i] == kAnalytic) {
      report.other_cycles += analytic_op_cycles(op, cpu);
      continue;
    }
    if (op.op_class != bnn::OpClass::kConv3x3) {
      report.other_cycles += results[op_slot[i]].cycles;
      continue;
    }
    const std::size_t run_slot = rep_slot + 2 * block_run[block++];
    LayerComparison cmp;
    cmp.name = op.name;
    cmp.baseline_detail = results[op_slot[i]];
    cmp.sw_detail = results[run_slot];
    cmp.hw_detail = results[run_slot + 1];
    // The details carry the simulated op's name; relabel so the report
    // reads per layer.
    cmp.baseline_detail.name = op.name;
    cmp.sw_detail.name = op.name;
    cmp.hw_detail.name = op.name;
    cmp.baseline_cycles = cmp.baseline_detail.cycles;
    cmp.sw_cycles = cmp.sw_detail.cycles;
    cmp.hw_cycles = cmp.hw_detail.cycles;
    report.total_baseline += cmp.baseline_cycles;
    report.total_sw += cmp.sw_cycles;
    report.total_hw += cmp.hw_cycles;
    report.conv3x3.push_back(std::move(cmp));
  }
  report.total_baseline += report.other_cycles;
  report.total_sw += report.other_cycles;
  report.total_hw += report.other_cycles;
  out.summary = std::move(summary);
  return out;
}

}  // namespace bkc::hwsim
